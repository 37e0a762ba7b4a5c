package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/exodb/fieldrepl"
	"github.com/exodb/fieldrepl/client"
	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/extra"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
	"github.com/exodb/fieldrepl/internal/wal"
)

// The loops below time the exported functions of one internal package each,
// a fixed number of times, on the workload's own statements and records.
// Every figure is total time over count. They say what a layer costs alone;
// the traced run says how often the workload pays it.

const (
	layerRecords = 20000 // records and keys the heap and B-tree loops are built on, at most
	layerPages   = 2048  // pages of the file the buffer and pagefile loops read
	missFrames   = 64    // pool size of the miss loop: 1/32 of the file
)

// per is d over n in the unit of one (time.Nanosecond or time.Microsecond).
func per(d time.Duration, n int, one time.Duration) float64 {
	return float64(d) / float64(n) / float64(one)
}

// layerLoops runs every loop and returns the timing layer metrics. It uses
// the set-up database of e for the statement-level loops (ping, parse, plan)
// and scratch stores under work for the storage loops.
func layerLoops(e *env, seed int64, work string) (map[string]float64, error) {
	n := e.sc.LayerN
	m := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	var reads, all []op
	for i := 0; len(reads) < 64; i++ {
		o := e.ds.next(rng, 0, 1, i, i%2 == 1)
		all = append(all, o)
		if !o.write {
			reads = append(reads, o)
		}
	}

	// client + internal/server: an empty round trip.
	srv := e.srv
	if srv == nil {
		var err error
		if srv, err = e.db.Serve("127.0.0.1:0", fieldrepl.ServerConfig{}); err != nil {
			return nil, err
		}
		defer srv.Close()
	}
	conn, err := client.Dial(srv.Addr(), client.Config{})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	pings := n / 10
	t := time.Now()
	for i := 0; i < pings; i++ {
		if err := conn.Ping(context.Background()); err != nil {
			return nil, err
		}
	}
	m["server.ping_us"] = per(time.Since(t), pings, time.Microsecond)

	// internal/extra: parsing the workload's own statements.
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err := extra.Parse(all[i%len(all)].stmt); err != nil {
			return nil, err
		}
	}
	m["extra.parse_us"] = per(time.Since(t), n, time.Microsecond)

	// internal/plan: choosing the access path of the workload's reads.
	plans := n / 10
	t = time.Now()
	for i := 0; i < plans; i++ {
		if _, err := e.db.Plan(context.Background(), reads[i%len(reads)].q); err != nil {
			return nil, err
		}
	}
	m["plan.choose_us"] = per(time.Since(t), plans, time.Microsecond)

	if err := storageLoops(e.ds.sample(), n, rng, work, m); err != nil {
		return nil, err
	}
	return m, nil
}

func storageLoops(s layerSample, n int, rng *rand.Rand, work string, m map[string]float64) error {
	// internal/schema: encode and decode the workload's largest record type.
	fields := make([]schema.Field, len(s.fields))
	for i, f := range s.fields {
		fields[i] = schema.Field{Name: f.Name, Kind: schema.Kind(f.Kind), RefType: f.RefType}
	}
	typ, err := schema.NewType("SAMPLE", 1, fields)
	if err != nil {
		return err
	}
	count := min(s.count, layerRecords)
	objs := make([]*schema.Object, count)
	for i := range objs {
		o := schema.NewObject(typ)
		for name, v := range s.values(i) {
			sv := schema.StringValue(v.Str())
			if v.Kind() == fieldrepl.Int {
				sv = schema.IntValue(v.Int())
			}
			if err := o.Set(name, sv); err != nil {
				return err
			}
		}
		objs[i] = o
	}
	encoded := make([][]byte, count)
	t := time.Now()
	for i := 0; i < n; i++ {
		encoded[i%count] = objs[i%count].Encode()
	}
	m["schema.encode_ns"] = per(time.Since(t), n, time.Nanosecond)
	for i := range encoded {
		if encoded[i] == nil {
			encoded[i] = objs[i].Encode()
		}
	}
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err := schema.Decode(typ, encoded[i%count]); err != nil {
			return err
		}
	}
	m["schema.decode_ns"] = per(time.Since(t), n, time.Nanosecond)

	// internal/heap and internal/btree over a resident pool, so the figures
	// are the layers' own and not the store's.
	mem := pagefile.NewMemStore()
	defer mem.Close()
	pool := buffer.New(mem, 4096)
	hf, err := heap.Create(pool, "sample")
	if err != nil {
		return err
	}
	oids := make([]pagefile.OID, count)
	for i, enc := range encoded {
		if oids[i], err = hf.Insert(enc); err != nil {
			return err
		}
	}
	pages, err := hf.NumPages()
	if err != nil {
		return err
	}
	scans := max(1, n/int(pages)/8)
	t = time.Now()
	for i := 0; i < scans; i++ {
		if err := hf.Scan(func(pagefile.OID, []byte) error { return nil }); err != nil {
			return err
		}
	}
	m["heap.scan_us_per_page"] = per(time.Since(t), scans*int(pages), time.Microsecond)
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err := hf.Read(oids[rng.Intn(count)]); err != nil {
			return err
		}
	}
	m["heap.read_ns"] = per(time.Since(t), n, time.Nanosecond)

	tree, err := btree.Create(pool, "sample_idx")
	if err != nil {
		return err
	}
	for _, i := range rng.Perm(count) {
		if err := tree.Insert(btree.Int64Key(int64(i)), oids[i]); err != nil {
			return err
		}
	}
	st0 := pool.Stats()
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err := tree.Lookup(btree.Int64Key(int64(rng.Intn(count)))); err != nil {
			return err
		}
	}
	m["btree.lookup_ns"] = per(time.Since(t), n, time.Nanosecond)
	st1 := pool.Stats()
	m["btree.pages_per_lookup"] = float64(st1.Hits+st1.Misses-st0.Hits-st0.Misses) / float64(n)
	span := min(100, count)
	ranges := max(1, n/span)
	keys := 0
	t = time.Now()
	for i := 0; i < ranges; i++ {
		lo := rng.Intn(count - span + 1)
		if err := tree.Range(btree.Int64Key(int64(lo)), btree.Int64Key(int64(lo+span-1)), func(btree.Key, pagefile.OID) bool {
			keys++
			return true
		}); err != nil {
			return err
		}
	}
	m["btree.range_ns_per_key"] = per(time.Since(t), max(keys, 1), time.Nanosecond)

	// internal/pagefile and internal/buffer over a file store on the same
	// file system the measured database uses.
	dir, err := os.MkdirTemp(work, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := pagefile.NewFileStore(dir)
	if err != nil {
		return err
	}
	defer fs.Close()
	fid, err := fs.CreateFile("pages")
	if err != nil {
		return err
	}
	npages := min(layerPages, max(2*missFrames, n/4))
	var page pagefile.Page
	for i := 0; i < npages; i++ {
		pno, err := fs.Allocate(fid)
		if err != nil {
			return err
		}
		page[pagefile.PageHeaderSize] = byte(i)
		if err := fs.WritePage(pagefile.PageID{File: fid, Page: pno}, &page); err != nil {
			return err
		}
	}
	reads := n / 4
	t = time.Now()
	for i := 0; i < reads; i++ {
		if err := fs.ReadPage(pagefile.PageID{File: fid, Page: uint32(rng.Intn(npages))}, &page); err != nil {
			return err
		}
	}
	m["pagefile.read_us"] = per(time.Since(t), reads, time.Microsecond)
	syncs := max(4, n/200)
	t = time.Now()
	for i := 0; i < syncs; i++ {
		if err := fs.WritePage(pagefile.PageID{File: fid, Page: uint32(i % npages)}, &page); err != nil {
			return err
		}
		if err := fs.Sync(fid); err != nil {
			return err
		}
	}
	m["pagefile.sync_us"] = per(time.Since(t), syncs, time.Microsecond)

	get := func(p *buffer.Pool, count int) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < count; i++ {
			h, err := p.Get(pagefile.PageID{File: fid, Page: uint32(rng.Intn(npages))})
			if err != nil {
				return 0, err
			}
			if err := h.Unpin(); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	resident := buffer.New(fs, npages+8)
	for i := 0; i < npages; i++ {
		h, err := resident.Get(pagefile.PageID{File: fid, Page: uint32(i)})
		if err != nil {
			return err
		}
		if err := h.Unpin(); err != nil {
			return err
		}
	}
	d, err := get(resident, n)
	if err != nil {
		return err
	}
	m["buffer.get_hit_ns"] = per(d, n, time.Nanosecond)
	small := buffer.New(fs, missFrames)
	before := small.Stats()
	if d, err = get(small, reads); err != nil {
		return err
	}
	after := small.Stats()
	// Every miss pays an eviction and a store read; the few hits among the
	// random picks are taken out at the hit cost just measured.
	misses := after.Misses - before.Misses
	hitTime := time.Duration(float64(after.Hits-before.Hits) * m["buffer.get_hit_ns"])
	m["buffer.get_miss_ns"] = per(d-hitTime, int(max(misses, 1)), time.Nanosecond)

	// internal/wal: one durable commit of one page image, from one committer
	// and from two at once (the group-commit rendezvous).
	commits := max(4, n/100)
	for _, committers := range []int{1, 2} {
		d, err := walCommits(filepath.Join(dir, fmt.Sprintf("wal-%d.log", committers)), fs, committers, commits)
		if err != nil {
			return err
		}
		m[fmt.Sprintf("wal.commit_us_%d", committers)] = per(d, commits, time.Microsecond)
	}
	return nil
}

// walCommits has each of the committers append and force `commits` one-page
// transactions and returns the mean time one committer spent on all of its.
func walCommits(path string, store pagefile.Store, committers, commits int) (time.Duration, error) {
	log, _, err := wal.Open(path, store, 0)
	if err != nil {
		return 0, err
	}
	defer log.Close()
	var wg sync.WaitGroup
	errs := make([]error, committers)
	spent := make([]time.Duration, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			img := []wal.PageImage{{PID: pagefile.PageID{File: 1, Page: uint32(c)}}}
			t := time.Now()
			for i := 0; i < commits; i++ {
				img[0].Data[pagefile.PageHeaderSize] = byte(i)
				lsn, _, err := log.AppendCommit(nil, img, nil)
				if err == nil {
					err = log.WaitDurable(lsn)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
			spent[c] = time.Since(t)
		}(c)
	}
	wg.Wait()
	var total time.Duration
	for c := range errs {
		if errs[c] != nil {
			return 0, errs[c]
		}
		total += spent[c]
	}
	return total / time.Duration(committers), nil
}
