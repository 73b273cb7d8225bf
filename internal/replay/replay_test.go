package replay

import "testing"

func TestAppendNext(t *testing.T) {
	l := NewLog()
	if seq := l.Append("GET", "/index.html", 0); seq != 0 {
		t.Fatalf("first seq = %d", seq)
	}
	l.Append("GET", "/a.png", 1)
	ev, ok := l.Next()
	if !ok || ev.Kind != "GET" || ev.Data != "/index.html" || ev.Seq != 0 {
		t.Fatalf("first event = %+v, ok=%v", ev, ok)
	}
	ev, _ = l.Next()
	if ev.Seq != 1 || ev.N != 1 {
		t.Fatalf("second event = %+v", ev)
	}
	if _, ok := l.Next(); ok {
		t.Fatal("exhausted log returned an event")
	}
}

func TestCursorRewindReplaysSameEvents(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append("op", "", i)
	}
	var first []int
	for {
		ev, ok := l.Next()
		if !ok {
			break
		}
		first = append(first, ev.N)
	}
	l.SetCursor(2)
	if l.Cursor() != 2 {
		t.Fatalf("cursor = %d", l.Cursor())
	}
	var second []int
	for {
		ev, ok := l.Next()
		if !ok {
			break
		}
		second = append(second, ev.N)
	}
	if len(second) != 3 || second[0] != first[2] {
		t.Fatalf("replay = %v, original tail = %v", second, first[2:])
	}
}

func TestSetCursorClamps(t *testing.T) {
	l := NewLog()
	l.Append("x", "", 0)
	l.SetCursor(-5)
	if l.Cursor() != 0 {
		t.Fatal("negative cursor not clamped")
	}
	l.SetCursor(99)
	if l.Cursor() != 1 {
		t.Fatal("overlarge cursor not clamped")
	}
}

func TestPeekDoesNotAdvance(t *testing.T) {
	l := NewLog()
	l.Append("a", "", 0)
	ev, ok := l.Peek()
	if !ok || ev.Kind != "a" || l.Cursor() != 0 {
		t.Fatalf("peek = %+v cursor=%d", ev, l.Cursor())
	}
}

func TestAppendAfterConsumption(t *testing.T) {
	l := NewLog()
	l.Append("a", "", 0)
	l.Next()
	l.Append("b", "", 0)
	ev, ok := l.Next()
	if !ok || ev.Kind != "b" {
		t.Fatalf("live append lost: %+v", ev)
	}
	if l.Len() != 2 || l.At(0).Kind != "a" {
		t.Fatal("history lost")
	}
}

func TestEventString(t *testing.T) {
	l := NewLog()
	l.Append("GET", "/x", 3)
	if s := l.At(0).String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestLogClone(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append("op", "", i)
	}
	l.Next()
	l.Next()

	c := l.Clone()
	if c.Cursor() != 2 || c.Len() != 5 {
		t.Fatalf("clone cursor=%d len=%d", c.Cursor(), c.Len())
	}
	// Divergent consumption.
	c.Next()
	if l.Cursor() != 2 {
		t.Fatal("clone consumption moved original cursor")
	}
	// Divergent appends.
	l.Append("orig", "", 9)
	if c.Len() != 5 {
		t.Fatal("clone saw original's append")
	}
	ev, ok := c.Next()
	if !ok || ev.N != 3 {
		t.Fatalf("clone replay broken: %+v %v", ev, ok)
	}
}
