// Package pragmafx is the pragma-engine fixture: malformed suppressions
// are themselves diagnostics, and a reasonless pragma must not suppress
// anything. Pragma lines cannot carry trailing comments, so expectations
// use the harness's want-above form; the pragmas sit inside function
// bodies, where gofmt leaves comment order alone.
package pragmafx

import "kdtune/internal/parallel"

func typoDirective() {
	//kdlint:nocacnel typo in the directive name
	// want-above `unknown kdlint directive "nocacnel"`
}

// reasonless carries a pragma with no justification: the pragma is flagged
// AND the dispatch it tried to cover is still reported.
func reasonless(xs []float64) {
	//kdlint:nocancel
	// want-above `kdlint:nocancel suppresses guard.cancel but gives no reason`
	parallel.For(nil, len(xs), 2, func(lo, hi int) {}) // want `parallel\.For threads a nil Canceler`
}

func allowMissingReason() {
	//kdlint:allow determinism.maprange
	// want-above `kdlint:allow needs a rule category and a reason`
}

// covered shows a valid pragma suppressing from the line above.
func covered(xs []float64) {
	//kdlint:nocancel fixture: two-element dispatch cannot block an abort
	parallel.For(nil, len(xs), 2, func(lo, hi int) {})
}
