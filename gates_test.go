//go:build gates

package fieldrepl

import "time"

// At gate scale, 1,000 read sessions and 64 committing writer sessions share
// the server for 5 s.
var serverFleet = struct {
	readers, writers int
	dur              time.Duration
}{1000, 64, 5 * time.Second}
