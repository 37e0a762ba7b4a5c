package buffer

import (
	"errors"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// scopePool returns a pool over a file with one page whose first byte is 1.
func scopePool(t *testing.T) (*Pool, pagefile.PageID, map[pagefile.FileID]bool) {
	t.Helper()
	st := pagefile.NewMemStore()
	fid, err := st.CreateFile("f")
	if err != nil {
		t.Fatal(err)
	}
	p := New(st, 4)
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h.Page()[100] = 1
	h.MarkDirty()
	h.Unpin()
	return p, pid, map[pagefile.FileID]bool{fid: true}
}

// byteAt reads one byte of pid the way a concurrent read session would.
func byteAt(t *testing.T, p *Pool, pid pagefile.PageID) byte {
	t.Helper()
	var b byte
	if err := p.Read(pid, nil, func(pg *pagefile.Page) error { b = pg[100]; return nil }); err != nil {
		t.Fatal(err)
	}
	return b
}

// write sets the byte through a captured pin, as a write session does.
func write(t *testing.T, p *Pool, pid pagefile.PageID, b byte) {
	t.Helper()
	h, err := p.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	h.Capture()
	h.Page()[100] = b
	h.MarkDirty()
	h.Unpin()
}

func TestScopeCommitPublishesAndRollbackRestores(t *testing.T) {
	p, pid, files := scopePool(t)

	p.BeginScope()
	write(t, p, pid, 2)
	write(t, p, pid, 3) // a second pin composes with the first
	if got := byteAt(t, p, pid); got != 1 {
		t.Fatalf("snapshot reader saw %d inside an open scope, want the pre-image 1", got)
	}
	if h, _ := p.Get(pid); h.Page()[100] != 3 {
		t.Fatalf("the scope's own read pin saw %d, want its last write 3", h.Page()[100])
	} else {
		h.Unpin()
	}
	if err := p.Reset(); !errors.Is(err, ErrStillPinned) {
		t.Fatalf("Reset with an open scope: %v, want ErrStillPinned", err)
	}
	// The dirty set hands commit both images by reference: what readers still
	// see, and the frame as the scope left it.
	if dirty, err := p.ScopeDirty(files); err != nil || len(dirty) != 1 || dirty[0].PID != pid {
		t.Fatalf("ScopeDirty = %v, %v, want [%v]", dirty, err, pid)
	} else if dirty[0].Pre[100] != 1 || dirty[0].Post[100] != 3 {
		t.Fatalf("ScopeDirty images hold %d -> %d, want 1 -> 3", dirty[0].Pre[100], dirty[0].Post[100])
	}
	before := p.FileEpoch(pid.File)
	p.EndScope(files)
	if got := byteAt(t, p, pid); got != 3 {
		t.Fatalf("after commit the reader saw %d, want 3", got)
	}
	if p.FileEpoch(pid.File) != before+1 {
		t.Fatal("commit did not bump the file epoch once")
	}

	p.BeginScope()
	write(t, p, pid, 4)
	if err := p.RollbackScope(files); err != nil {
		t.Fatal(err)
	}
	if got := byteAt(t, p, pid); got != 3 {
		t.Fatalf("after rollback the reader saw %d, want 3", got)
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset after the scopes closed: %v", err)
	}
}

// A page registered for writing but never marked dirty (an insert probe that
// found no room) is not the scope's to log or publish.
func TestScopeRegisteredButCleanPage(t *testing.T) {
	p, pid, files := scopePool(t)
	p.BeginScope()
	h, err := p.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	h.Capture()
	h.Unpin()
	if dirty, err := p.ScopeDirty(files); err != nil || len(dirty) != 0 {
		t.Fatalf("ScopeDirty = %v, %v for an untouched page", dirty, err)
	}
	before := p.FileEpoch(pid.File)
	p.EndScope(files)
	if p.FileEpoch(pid.File) != before {
		t.Fatal("an untouched page bumped the file epoch")
	}
}

func TestScopeNewPageRollsBackToEmpty(t *testing.T) {
	p, pid, files := scopePool(t)
	p.BeginScope()
	h, npid, err := p.NewPageCaptureT(pid.File, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Page()[100] = 9
	h.MarkDirty()
	h.Unpin()
	if got := byteAt(t, p, npid); got != 0 {
		t.Fatalf("reader saw %d on an uncommitted new page, want the zero image", got)
	}
	if dirty, err := p.ScopeDirty(files); err != nil || len(dirty) != 1 || dirty[0].PID != npid {
		t.Fatalf("ScopeDirty = %v, %v, want [%v]", dirty, err, npid)
	} else if *dirty[0].Pre != (pagefile.Page{}) || dirty[0].Post[100] != 9 {
		t.Fatal("a new page's images are not zero -> written")
	}
	if err := p.RollbackScope(files); err != nil {
		t.Fatal(err)
	}
	if got := byteAt(t, p, npid); got != 0 {
		t.Fatalf("rolled-back allocation holds %d, want an empty page", got)
	}
}
