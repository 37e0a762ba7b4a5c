package catalog

import (
	"bytes"
	"testing"
)

// FuzzRestore throws arbitrary bytes at Restore, which parses catalogs read
// from the log and from the replication stream. Restore never panics, and a
// catalog it accepts snapshots to bytes that restore to the same snapshot.
// Seeds: a snapshot with in-place, separate and collapsed paths, and the same
// snapshot with the taint markers earlier versions wrote.
func FuzzRestore(f *testing.F) {
	data, err := fullCatalog(f).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(bytes.Replace(data, []byte(`"next_tag"`), []byte(`"tainted": {"Emp1": "injected fault"},
  "next_tag"`), 1))
	f.Add([]byte(`{"version":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Restore(data)
		if err != nil {
			return
		}
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a restored catalog: %v", err)
		}
		c2, err := Restore(snap)
		if err != nil {
			t.Fatalf("a restored catalog's snapshot does not restore: %v", err)
		}
		again, err := c2.Snapshot()
		if err != nil || !bytes.Equal(again, snap) {
			t.Fatalf("snapshot changed across a restore (%v):\n%s\n%s", err, snap, again)
		}
	})
}
