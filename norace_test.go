//go:build !race

package fieldrepl

const raceEnabled = false
