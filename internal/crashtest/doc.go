// Package crashtest is the crash-injection harness behind `make crash`:
// it SIGKILLs a real wildreport process at seeded-random points mid-run,
// resumes it from its checkpoint directory, and requires the final
// stdout to be byte-identical to an uninterrupted run of the same
// flags. The matrix covers all four chaos profiles and a GOMAXPROCS flip
// across resume attempts in both directions, plus two targeted
// scenarios: a torn newest checkpoint (must fall back to the previous
// generation and still complete) and the two-phase SIGINT contract
// (first interrupt drains, checkpoints, and exits 3).
//
// The tests fork and kill real processes and take minutes, so they are
// gated behind CRASHTEST=1 and skipped by plain `go test ./...`.
package crashtest
