// Package apps contains the emulated applications of the paper's
// evaluation (Table 2): three servers (Apache, Squid, CVS) and four desktop
// programs (Pine, Mutt, M4, BC), plus the two injected-bug Apache variants
// (Apache-uir, Apache-dpw). Each embeds its published bug class with the
// published call-site structure and provides a workload generator that
// mixes bug-triggering inputs with normal inputs.
package apps

import (
	"fmt"

	"firstaid/internal/app"
)

// New returns a fresh instance of the named application.
func New(name string) (app.App, error) {
	switch name {
	case "apache":
		return &Apache{}, nil
	case "apache-uir":
		return &Apache{InjectUIR: true}, nil
	case "apache-dpw":
		return &Apache{InjectDPW: true}, nil
	case "squid":
		return &Squid{}, nil
	case "cvs":
		return &CVS{}, nil
	case "pine":
		return &Pine{}, nil
	case "mutt":
		return &Mutt{}, nil
	case "m4":
		return &M4{}, nil
	case "bc":
		return &BC{}, nil
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// Names lists every application in the evaluation order of the paper's
// Table 3.
func Names() []string {
	return []string{"apache", "squid", "cvs", "pine", "mutt", "m4", "bc", "apache-uir", "apache-dpw"}
}

// RealBugNames lists the seven applications with developer-introduced bugs
// (Tables 4 and 5 exclude the injected variants).
func RealBugNames() []string {
	return []string{"apache", "squid", "cvs", "pine", "mutt", "m4", "bc"}
}

// Describe returns the Table 2 row for an application.
func Describe(name string) string {
	rows := map[string]string{
		"apache":     "Apache 2.0.51 | dangling pointer read | 263K LOC | web server",
		"apache-uir": "Apache 2.0.51 | uninitialized read (injected) | 263K LOC | web server",
		"apache-dpw": "Apache 2.0.51 | dangling pointer write (injected) | 263K LOC | web server",
		"squid":      "Squid 2.3 | buffer overflow | 93K LOC | proxy cache",
		"cvs":        "CVS 1.11.4 | double free | 114K LOC | version control",
		"pine":       "Pine 4.44 | buffer overflow | 330K LOC | email client",
		"mutt":       "Mutt 1.3.99i | buffer overflow | 86K LOC | email client",
		"m4":         "M4 1.4.4 | dangling pointer read | 17K LOC | macro processor",
		"bc":         "BC 1.06 | buffer overflow | 14K LOC | calculator",
	}
	if r, ok := rows[name]; ok {
		return r
	}
	return name + " | unknown"
}
