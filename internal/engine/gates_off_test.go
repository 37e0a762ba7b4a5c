//go:build !gates

package engine

// Untagged, each gate test checks its property at unit scale and leaves out
// the checks that compare times; `go test -tags gates` (make gates) runs the
// same tests at the scale the claim is made for, with those checks, plus the
// timing-only gates of gates_test.go.
const gates = false

// advisorScale sizes TestAdvisorConvergence: operations per advisor window,
// then the orgs, departments and employees populated.
var advisorScale = struct{ windowOps, orgs, depts, emps int }{16, 2, 4, 40}
