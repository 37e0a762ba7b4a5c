package pagefile_test

import (
	"testing"

	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TestEngineReleasesMappings opens a file-backed database, writes enough to
// map chunks, and checks that every chunk is unmapped again by Close, by
// CrashStop, and by the Close after a reopen.
func TestEngineReleasesMappings(t *testing.T) {
	base := pagefile.LiveChunks()
	dir := t.TempDir()
	open := func() *engine.DB {
		t.Helper()
		db, err := engine.Open(engine.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	mapped := func(what string) {
		t.Helper()
		if pagefile.LiveChunks() == base {
			t.Fatalf("%s: no chunk mapped", what)
		}
	}
	released := func(what string) {
		t.Helper()
		if got := pagefile.LiveChunks() - base; got != 0 {
			t.Fatalf("%s left %d chunks mapped", what, got)
		}
	}

	db := open()
	if err := db.DefineType("T", []schema.Field{{Name: "n", Kind: schema.KindInt}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSet("S", "T"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Insert("S", map[string]schema.Value{"n": schema.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	mapped("insert")
	db.CrashStop()
	released("CrashStop")

	db = open() // recovery replays the log through the mapping-backed store
	mapped("reopen")
	if n, err := db.Count("S"); err != nil || n != 500 {
		t.Fatalf("Count after crash = %d, %v; want 500", n, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	released("Close")
}
