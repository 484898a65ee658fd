// Command kdlint is the repository's static-analysis driver. It enforces
// the invariants the kd-tree builders' correctness and performance
// arguments depend on — see the rule packages under internal/lint/ — and
// gates the compiler's escape analysis over the hot packages against a
// committed baseline.
//
// Usage:
//
//	kdlint [-json] [-tests] [-rules fam,...] [packages]
//	kdlint -escapes [-baseline lint/escapes.baseline] [-update]
//
// Exit status: 0 when clean, 1 when findings (or new escapes) are reported,
// 2 on a load or usage error. The implementation lives in
// internal/lint/driver so the exit-code contract is covered by tests.
package main

import (
	"os"

	"kdtune/internal/lint/driver"
)

func main() { os.Exit(driver.Main(os.Args[1:], os.Stdout, os.Stderr)) }
