package pagefile

import (
	"math/rand"
	"testing"
)

// BenchmarkFileStoreReadPage reads a random page of a warm 6,000-page file
// (the size of the §6 database the benchmark's mix workloads run on): the
// cost the store adds to one buffer-pool miss when the OS has the page
// cached.
func BenchmarkFileStoreReadPage(b *testing.B) {
	s, err := NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const npages = 6000
	fid, err := s.CreateFile("bench")
	if err != nil {
		b.Fatal(err)
	}
	var p Page
	for i := 0; i < npages; i++ {
		pno, err := s.Allocate(fid)
		if err != nil {
			b.Fatal(err)
		}
		p[PageHeaderSize] = byte(i)
		if err := s.WritePage(PageID{File: fid, Page: pno}, &p); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ReadPage(PageID{File: fid, Page: uint32(rng.Intn(npages))}, &p); err != nil {
			b.Fatal(err)
		}
	}
}
