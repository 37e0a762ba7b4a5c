package buffer

import (
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// BenchmarkGet times one pin/unpin of a page: "hit" on a pool that holds the
// whole file, "miss-full-pool" cycling through a file twice the size of a
// 512-frame pool so every Get evicts — the steady state of the paper's
// Section-6 database, where the victim search runs once per page read.
func BenchmarkGet(b *testing.B) {
	const frames = 512
	for _, c := range []struct {
		name  string
		pages int
	}{{"hit", frames / 2}, {"miss-full-pool", frames * 2}} {
		b.Run(c.name, func(b *testing.B) {
			store := pagefile.NewMemStore()
			b.Cleanup(func() { store.Close() })
			fid, err := store.CreateFile("bench")
			if err != nil {
				b.Fatal(err)
			}
			p := New(store, frames)
			for i := 0; i < c.pages; i++ {
				h, _, err := p.NewPage(fid)
				if err != nil {
					b.Fatal(err)
				}
				h.Unpin()
			}
			if err := p.FlushAll(); err != nil {
				b.Fatal(err)
			}
			before := p.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := p.Get(pagefile.PageID{File: fid, Page: uint32(i % c.pages)})
				if err != nil {
					b.Fatal(err)
				}
				h.Unpin()
			}
			b.StopTimer()
			after := p.Stats()
			if misses := after.Misses - before.Misses; (c.pages > frames) != (misses == int64(b.N)) {
				b.Fatalf("%d misses in %d gets", misses, b.N)
			}
		})
	}
}

// BenchmarkSnapshotRead times one snapshot read of a resident page — the hit
// path every snapshot heap record and B-tree node access takes: the frame
// lookup and charge, then a callback that reads one byte in place.
func BenchmarkSnapshotRead(b *testing.B) {
	const pages = 256
	store := pagefile.NewMemStore()
	b.Cleanup(func() { store.Close() })
	fid, err := store.CreateFile("bench")
	if err != nil {
		b.Fatal(err)
	}
	p := New(store, 2*pages)
	for i := 0; i < pages; i++ {
		h, _, err := p.NewPage(fid)
		if err != nil {
			b.Fatal(err)
		}
		h.Page()[0] = byte(i)
		h.Unpin()
	}
	var sum byte
	read := func(pg *pagefile.Page) error { sum += pg[0]; return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Read(pagefile.PageID{File: fid, Page: uint32(i % pages)}, nil, read); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := p.Stats(); st.Misses != 0 {
		b.Fatalf("%d misses on a pool holding the whole file", st.Misses)
	}
}
