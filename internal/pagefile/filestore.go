package pagefile

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// FileStore is a Store backed by one OS file per page file, for users who
// want databases that persist across processes. It performs the same
// page-granularity I/O accounting as MemStore.
//
// Every page written through WritePage is stamped with a CRC32 (see
// checksum.go) and verified on ReadPage, so a torn write or a flipped bit on
// disk surfaces as ErrCorruptPage instead of silently decoding garbage.
// Durability is explicit: pages reach the OS on WritePage, and stable
// storage on Sync/SyncAll (or Close, which syncs every file first).
//
// Reads copy the page out of a read-only shared mapping of its file; writes
// go through pwrite. Both use the same OS page cache, so a read returns
// what the last write stored. A file is mapped in fixed-size chunks of
// chunkPages pages. Allocate maps the next chunk when the file grows past
// the last one, and chunks are unmapped only by Close. The mapping is only
// a read source for a buffer-pool miss. It is never written: a store
// through it could reach the disk whenever the kernel chose, ahead of the
// log record that covers it, while the pool calls WritePage only once that
// record is durable (its log-before-data barrier). Nor does the mapping
// decide what is cached; the pool does. Every copy out of a mapping and
// every write holds mu, so a copy never sees a half-written page and no
// chunk is unmapped under a reader.
type FileStore struct {
	mu         sync.Mutex
	dir        string
	chunkPages uint32
	files      []*osFile
	stats      Stats
	closed     bool
	created    bool // a file was created since SyncAll last fsynced dir
}

type osFile struct {
	f      *os.File
	name   string
	npages uint32
	// chunks[i] maps pages [i*chunkPages, (i+1)*chunkPages) of f. The last
	// chunk may extend past the end of the file; only pages below npages
	// are ever read.
	chunks [][]byte
}

// mapChunkPages is the number of pages one mapping chunk covers (64 MiB of
// address space). A store reads it once, at creation; tests lower it to
// cross chunk boundaries with a few pages.
var mapChunkPages uint32 = 16384

// liveChunks counts the chunks mapped and not yet unmapped by every
// FileStore in the process. Tests check that it returns to where it was:
// fault soaks open thousands of stores, and a leaked chunk per store would
// exhaust the kernel's per-process mapping limit.
var liveChunks atomic.Int64

// NewFileStore creates (or reuses) directory dir and returns a store whose
// page files live there. Existing files in dir are not reopened; use
// OpenFileStore to reattach to an existing database directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pagefile: creating store dir: %w", err)
	}
	return &FileStore{dir: dir, chunkPages: mapChunkPages}, nil
}

// OpenFileStore reopens an existing database directory: every page file
// previously created there is reattached under its original FileID, and new
// files continue the ID sequence. File names are recovered from the on-disk
// names (they were sanitized at creation; the catalog, not the store, is the
// authority on set names).
func OpenFileStore(dir string) (_ *FileStore, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pagefile: opening store dir: %w", err)
	}
	type onDisk struct {
		id   uint64
		name string
		path string
	}
	var found []onDisk
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pf") {
			continue
		}
		base := strings.TrimSuffix(e.Name(), ".pf")
		idStr, name, ok := strings.Cut(base, "_")
		if !ok {
			continue
		}
		id, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil || id == 0 {
			continue
		}
		found = append(found, onDisk{id: id, name: name, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].id < found[j].id })
	s := &FileStore{dir: dir, chunkPages: mapChunkPages}
	defer func() {
		if err != nil {
			for _, f := range s.files {
				_ = f.close() // err is the failure to report
			}
		}
	}()
	for i, od := range found {
		if od.id != uint64(i+1) {
			return nil, fmt.Errorf("pagefile: store dir %s has a gap at file id %d", dir, i+1)
		}
		f, err := os.OpenFile(od.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("pagefile: reopening %s: %w", od.path, err)
		}
		of := &osFile{f: f, name: od.name}
		s.files = append(s.files, of)
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if st.Size()%PageSize != 0 {
			return nil, fmt.Errorf("pagefile: %s has a partial page (%d bytes)", od.path, st.Size())
		}
		of.npages = uint32(st.Size() / PageSize)
		if err := s.mapPages(of, of.npages); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// mapPages maps chunks after f's last one until they cover its first n
// pages.
func (s *FileStore) mapPages(f *osFile, n uint32) error {
	for uint64(len(f.chunks))*uint64(s.chunkPages) < uint64(n) {
		off := int64(len(f.chunks)) * int64(s.chunkPages) * PageSize
		b, err := syscall.Mmap(int(f.f.Fd()), off, int(s.chunkPages)*PageSize, syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return fmt.Errorf("pagefile: mapping %s at byte %d: %w", f.f.Name(), off, err)
		}
		f.chunks = append(f.chunks, b)
		liveChunks.Add(1)
	}
	return nil
}

// close unmaps every chunk of f and closes the file, returning the first
// error.
func (f *osFile) close() error {
	var firstErr error
	for _, b := range f.chunks {
		if err := syscall.Munmap(b); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pagefile: unmapping %s: %w", f.f.Name(), err)
			}
			continue
		}
		liveChunks.Add(-1)
	}
	f.chunks = nil
	if err := f.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// CreateFile implements Store.
func (s *FileStore) CreateFile(name string) (FileID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	id := FileID(len(s.files) + 1)
	path := filepath.Join(s.dir, fmt.Sprintf("%04d_%s.pf", id, sanitize(name)))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("pagefile: creating %s: %w", path, err)
	}
	s.files = append(s.files, &osFile{f: f, name: name})
	s.created = true
	return id, nil
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func (s *FileStore) file(id FileID) (*osFile, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if id == 0 || int(id) > len(s.files) {
		return nil, ErrNoSuchFile
	}
	return s.files[id-1], nil
}

// Allocate implements Store.
func (s *FileStore) Allocate(id FileID) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(id)
	if err != nil {
		return 0, err
	}
	page := f.npages
	if err := s.mapPages(f, page+1); err != nil {
		return 0, err
	}
	// The zero image is deliberately unstamped (stored checksum 0 means
	// "unchecksummed"), so a freshly allocated page reads back all-zero.
	var zero Page
	if _, err := f.f.WriteAt(zero[:], int64(page)*PageSize); err != nil {
		return 0, fmt.Errorf("pagefile: extending file %d: %w", id, err)
	}
	f.npages++
	s.stats.allocs.Add(1)
	return page, nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(pid PageID, buf *Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(pid.File)
	if err != nil {
		return err
	}
	if pid.Page >= f.npages {
		return fmt.Errorf("%w: %s", ErrNoSuchPage, pid)
	}
	if err := s.readMapped(f, pid, buf); err != nil {
		return err
	}
	s.stats.reads.Add(1)
	return nil
}

// readMapped copies page pid of f out of its mapping into buf and verifies
// its checksum. The caller holds s.mu and has checked pid.Page against
// f.npages. A fault on the mapping — the file was truncated behind the
// store, or paging the bytes in hit an I/O error that pread would have
// returned — is returned as an error instead of killing the process.
func (s *FileStore) readMapped(f *osFile, pid PageID, buf *Page) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface {
				error
				Addr() uintptr
			})
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("pagefile: reading %s: fault at %#x in the mapping of %s: %w", pid, fault.Addr(), f.f.Name(), fault)
		}
	}()
	off := int(pid.Page%s.chunkPages) * PageSize
	copy(buf[:], f.chunks[pid.Page/s.chunkPages][off:off+PageSize])
	if err := VerifyChecksum(buf); err != nil {
		return fmt.Errorf("page %s: %w", pid, err)
	}
	return nil
}

// ReadPages implements Store: the run is copied out of the mapping page by
// page, each checksum-verified and counted as one read — a batched scan
// performs the same page I/O as a page-at-a-time scan, under one lock
// acquisition instead of len(bufs).
func (s *FileStore) ReadPages(fid FileID, start uint32, bufs []Page) error {
	if len(bufs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(fid)
	if err != nil {
		return err
	}
	if uint64(start)+uint64(len(bufs)) > uint64(f.npages) {
		return fmt.Errorf("%w: %v..%v", ErrNoSuchPage, PageID{File: fid, Page: start}, PageID{File: fid, Page: start + uint32(len(bufs)) - 1})
	}
	for i := range bufs {
		if err := s.readMapped(f, PageID{File: fid, Page: start + uint32(i)}, &bufs[i]); err != nil {
			return err
		}
		s.stats.reads.Add(1)
	}
	return nil
}

// WritePage implements Store. The page image is checksum-stamped before it
// is written (the stamp lands in buf's reserved header word, which is owned
// by the store layer).
func (s *FileStore) WritePage(pid PageID, buf *Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(pid.File)
	if err != nil {
		return err
	}
	if pid.Page >= f.npages {
		return fmt.Errorf("%w: %s", ErrNoSuchPage, pid)
	}
	StampChecksum(buf)
	if _, err := f.f.WriteAt(buf[:], int64(pid.Page)*PageSize); err != nil {
		return fmt.Errorf("pagefile: writing %s: %w", pid, err)
	}
	s.stats.writes.Add(1)
	return nil
}

// WritePageRaw writes a page image verbatim, without stamping a checksum or
// counting the write. It exists for fault injection (FaultStore's torn
// writes must land below the checksum layer) and corruption tests.
func (s *FileStore) WritePageRaw(pid PageID, buf *Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(pid.File)
	if err != nil {
		return err
	}
	if pid.Page >= f.npages {
		return fmt.Errorf("%w: %s", ErrNoSuchPage, pid)
	}
	if _, err := f.f.WriteAt(buf[:], int64(pid.Page)*PageSize); err != nil {
		return fmt.Errorf("pagefile: writing %s: %w", pid, err)
	}
	return nil
}

// NumPages implements Store.
func (s *FileStore) NumPages(id FileID) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(id)
	if err != nil {
		return 0, err
	}
	return f.npages, nil
}

// FileName implements Store.
func (s *FileStore) FileName(id FileID) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(id)
	if err != nil {
		return "", err
	}
	return f.name, nil
}

// Sync implements Store: an fsync barrier on one file.
func (s *FileStore) Sync(id FileID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(id)
	if err != nil {
		return err
	}
	if err := f.f.Sync(); err != nil {
		return fmt.Errorf("pagefile: syncing file %d: %w", id, err)
	}
	return nil
}

// SyncAll implements Store: an fsync barrier across every file, and across
// the directory when a file was created since the last barrier, so the file
// keeps its entry once the log no longer records its creation.
func (s *FileStore) SyncAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	var firstErr error
	for i, f := range s.files {
		if err := f.f.Sync(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("pagefile: syncing file %d: %w", i+1, err)
		}
	}
	if firstErr != nil || !s.created {
		return firstErr
	}
	if err := SyncDir(s.dir); err != nil {
		return err
	}
	s.created = false
	return nil
}

// SyncDir fsyncs directory dir, making the entries created or renamed in it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("pagefile: syncing directory %s: %w", dir, err)
	}
	return nil
}

// Stats implements Store.
func (s *FileStore) Stats() *Stats { return &s.stats }

// Close implements Store. It syncs every backing OS file, unmaps it and
// closes it. Closing twice is a no-op.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var firstErr error
	for _, f := range s.files {
		if err := f.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := f.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.files = nil
	s.closed = true
	return firstErr
}
