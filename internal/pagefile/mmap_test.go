package pagefile

import (
	"errors"
	"math/rand"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// withChunkPages makes the stores a test creates map n pages per chunk.
func withChunkPages(t *testing.T, n uint32) {
	t.Helper()
	old := mapChunkPages
	mapChunkPages = n
	t.Cleanup(func() { mapChunkPages = old })
}

// checkLiveChunks fails the test unless exactly want chunks more than base
// are mapped.
func checkLiveChunks(t *testing.T, base, want int64) {
	t.Helper()
	if got := liveChunks.Load() - base; got != want {
		t.Fatalf("live chunks = %d, want %d", got, want)
	}
}

// markedPage returns a stamped page whose bytes are a function of (page,
// version), so any page read back can be matched against what was written.
func markedPage(page uint32, version int) Page {
	var p Page
	rng := rand.New(rand.NewSource(int64(page)<<16 | int64(version)))
	rng.Read(p[PageHeaderSize:])
	p[0], p[1], p[2] = byte(page), byte(page>>8), byte(version)
	StampChecksum(&p)
	return p
}

// growMarked allocates n pages in f and writes markedPage(page, version) to
// each.
func growMarked(t *testing.T, s Store, f FileID, n, version int) {
	t.Helper()
	for i := 0; i < n; i++ {
		pno, err := s.Allocate(f)
		if err != nil {
			t.Fatal(err)
		}
		p := markedPage(pno, version)
		if err := s.WritePage(PageID{File: f, Page: pno}, &p); err != nil {
			t.Fatal(err)
		}
	}
}

// checkMarked reads every page of f one at a time and as one batch and
// compares each with markedPage(page, version).
func checkMarked(t *testing.T, s Store, f FileID, version int) {
	t.Helper()
	n, err := s.NumPages(f)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Page, n)
	if err := s.ReadPages(f, 0, batch); err != nil {
		t.Fatalf("ReadPages: %v", err)
	}
	for pno := uint32(0); pno < n; pno++ {
		want := markedPage(pno, version)
		var got Page
		if err := s.ReadPage(PageID{File: f, Page: pno}, &got); err != nil {
			t.Fatalf("ReadPage %d: %v", pno, err)
		}
		if got != want || batch[pno] != want {
			t.Fatalf("file %d page %d differs from what was written", f, pno)
		}
	}
}

func TestFileStoreMappingAcrossChunks(t *testing.T) {
	withChunkPages(t, 4)
	base := liveChunks.Load()
	s := mustFileStore(t)
	a, _ := s.CreateFile("a")
	b, _ := s.CreateFile("b")
	checkLiveChunks(t, base, 0)
	growMarked(t, s, a, 4*3+1, 0) // pages 0..12: four chunks, three boundaries crossed
	growMarked(t, s, b, 4, 0)     // exactly one full chunk
	checkLiveChunks(t, base, 5)
	checkMarked(t, s, a, 0)
	checkMarked(t, s, b, 0)
	// A batch that straddles a boundary is split across two chunks.
	bufs := make([]Page, 3)
	if err := s.ReadPages(a, 3, bufs); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if bufs[i] != markedPage(uint32(3+i), 0) {
			t.Fatalf("straddling batch page %d differs", 3+i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkLiveChunks(t, base, 0)
}

func TestFileStoreWritesVisibleToNextRead(t *testing.T) {
	withChunkPages(t, 4)
	s := mustFileStore(t)
	f, _ := s.CreateFile("w")
	growMarked(t, s, f, 10, 0)
	checkMarked(t, s, f, 0)
	for pno := uint32(0); pno < 10; pno++ {
		p := markedPage(pno, 1)
		if err := s.WritePage(PageID{File: f, Page: pno}, &p); err != nil {
			t.Fatal(err)
		}
	}
	checkMarked(t, s, f, 1)
	// A raw write bypasses the stamp but not the mapping.
	for pno := uint32(0); pno < 10; pno++ {
		p := markedPage(pno, 2)
		if err := s.WritePageRaw(PageID{File: f, Page: pno}, &p); err != nil {
			t.Fatal(err)
		}
	}
	checkMarked(t, s, f, 2)
}

func TestOpenFileStoreMapsReopenedFiles(t *testing.T) {
	withChunkPages(t, 4)
	base := liveChunks.Load()
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.CreateFile("a")
	b, _ := s.CreateFile("b")
	c, _ := s.CreateFile("empty")
	growMarked(t, s, a, 10, 0)
	growMarked(t, s, b, 4, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkLiveChunks(t, base, 0)

	r, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkLiveChunks(t, base, 3+1) // 10 pages: 3 chunks; 4 pages: 1; empty: none
	checkMarked(t, r, a, 0)
	checkMarked(t, r, b, 0)
	checkMarked(t, r, c, 0)
	// Growth continues in the reopened file's last chunk, then a new one.
	for pno := uint32(10); pno < 14; pno++ {
		if _, err := r.Allocate(a); err != nil {
			t.Fatal(err)
		}
		p := markedPage(pno, 0)
		if err := r.WritePage(PageID{File: a, Page: pno}, &p); err != nil {
			t.Fatal(err)
		}
	}
	checkLiveChunks(t, base, 4+1)
	checkMarked(t, r, a, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	checkLiveChunks(t, base, 0)
}

// TestOpenFileStoreFailureUnmaps: a store that fails to open releases the
// files and chunks it had already mapped.
func TestOpenFileStoreFailureUnmaps(t *testing.T) {
	withChunkPages(t, 4)
	base := liveChunks.Load()
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.CreateFile("a")
	growMarked(t, s, a, 6, 0)
	b, _ := s.CreateFile("b")
	growMarked(t, s, b, 1, 0)
	path := s.files[b-1].f.Name()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, PageSize/2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(dir); err == nil || !strings.Contains(err.Error(), "partial page") {
		t.Fatalf("OpenFileStore over a partial page: err = %v", err)
	}
	checkLiveChunks(t, base, 0)
}

// TestFileStoreTruncatedBehindStore: a file truncated under an open store
// makes the mapping fault (SIGBUS). The read returns an error and the
// process lives on; the page is gone, not corrupt.
func TestFileStoreTruncatedBehindStore(t *testing.T) {
	s := mustFileStore(t)
	f, _ := s.CreateFile("t")
	growMarked(t, s, f, 8, 0)
	checkMarked(t, s, f, 0)
	if err := os.Truncate(s.files[f-1].f.Name(), 2*PageSize); err != nil {
		t.Fatal(err)
	}

	var p Page
	if err := s.ReadPage(PageID{File: f, Page: 1}, &p); err != nil {
		t.Fatalf("page inside the truncated length: %v", err)
	}
	err := s.ReadPage(PageID{File: f, Page: 5}, &p)
	if err == nil || !strings.Contains(err.Error(), "fault at") {
		t.Fatalf("ReadPage past the truncation: err = %v, want a mapping fault", err)
	}
	if errors.Is(err, ErrCorruptPage) || errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("ReadPage past the truncation: err = %v, want no sentinel", err)
	}
	err = s.ReadPages(f, 0, make([]Page, 4))
	if err == nil || !strings.Contains(err.Error(), "fault at") {
		t.Fatalf("ReadPages across the truncation: err = %v, want a mapping fault", err)
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("a faulted read left SetPanicOnFault on")
	}
	if got := s.Stats().Reads(); got != 8*2+1+2 {
		t.Fatalf("reads = %d, want %d (a faulted page is not counted)", got, 8*2+1+2)
	}
}

// TestFileStoreConcurrentReadsDuringGrowth races readers against an
// Allocate that maps new chunks, WritePage rewriting live pages, and
// SyncAll. Every read must return an image that was written whole.
func TestFileStoreConcurrentReadsDuringGrowth(t *testing.T) {
	withChunkPages(t, 4)
	s := mustFileStore(t)
	f, _ := s.CreateFile("race")
	growMarked(t, s, f, 6, 0)

	const target = 48
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(3)
	go func() { // grow across ten chunk boundaries
		defer writers.Done()
		for {
			n, err := s.NumPages(f)
			if err != nil || n >= target {
				return
			}
			if _, err := s.Allocate(f); err != nil {
				t.Error(err)
				return
			}
			p := markedPage(n, 0)
			if err := s.WritePage(PageID{File: f, Page: n}, &p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // rewrite the first pages over and over
		defer writers.Done()
		for v := 1; v <= 200; v++ {
			pno := uint32(v % 6)
			p := markedPage(pno, v)
			if err := s.WritePage(PageID{File: f, Page: pno}, &p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			if err := s.SyncAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			var p Page
			batch := make([]Page, 3)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := s.NumPages(f)
				if err != nil {
					t.Error(err)
					return
				}
				pno := uint32(rng.Intn(int(n)))
				if err := s.ReadPage(PageID{File: f, Page: pno}, &p); err != nil {
					t.Error(err)
					return
				}
				var zero Page
				if p != zero && (p[0] != byte(pno) || p[1] != byte(pno>>8)) {
					t.Errorf("page %d read back the image of page %d", pno, int(p[0])|int(p[1])<<8)
					return
				}
				if n >= 3 {
					if err := s.ReadPages(f, n-3, batch); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(r))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for pno := uint32(0); pno < target; pno++ {
		version := 0
		if pno < 6 {
			version = 200 - (200-int(pno))%6 // the last v <= 200 with v%6 == pno
		}
		var got Page
		if err := s.ReadPage(PageID{File: f, Page: pno}, &got); err != nil {
			t.Fatal(err)
		}
		if got != markedPage(pno, version) {
			t.Fatalf("page %d is not its last written image (version %d)", pno, version)
		}
	}
}
