//go:build !gates

package fieldrepl

import "time"

// serverFleet sizes TestServerReadersNeverWaitOnWriters. Untagged it is a
// few sessions for half a second; `go test -tags gates` (make gates) runs
// the serving gate's fleet.
var serverFleet = struct {
	readers, writers int
	dur              time.Duration
}{3, 3, 500 * time.Millisecond}
