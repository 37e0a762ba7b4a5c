//go:build race

package fieldrepl

// raceEnabled reports a -race build, whose runtime allocates beside the code
// under test, so byte counts pinned for normal builds do not hold.
const raceEnabled = true
