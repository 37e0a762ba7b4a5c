package heap

import (
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Stats describes a heap file's physical state.
type Stats struct {
	Pages       uint32 // pages in the file
	Live        int    // live records (home OIDs)
	Forwarded   int    // records whose body moved behind a stub
	DeadSlots   int    // slot-directory entries without a record
	PayloadSize int64  // total live payload bytes
	FreeBytes   int64  // reclaimable bytes across all pages (incl. compaction)
}

// AvgPayload returns the mean live payload size.
func (s Stats) AvgPayload() float64 {
	if s.Live == 0 {
		return 0
	}
	return float64(s.PayloadSize) / float64(s.Live)
}

// Stats scans the file and reports its physical statistics.
func (f *File) Stats() (Stats, error) {
	var st Stats
	n, err := f.NumPages()
	if err != nil {
		return st, err
	}
	st.Pages = n
	for page := uint32(0); page < n; page++ {
		err := f.read(pagefile.PageID{File: f.id, Page: page}, func(pg *pagefile.Page) error {
			sp := pagefile.AsSlotted(pg)
			st.FreeBytes += int64(sp.FreeSpace())
			nslots := sp.NumSlots()
			for slot := uint16(0); slot < nslots; slot++ {
				if !sp.Live(slot) {
					st.DeadSlots++
					continue
				}
				rec, err := sp.Read(slot)
				if err != nil {
					return err
				}
				switch rec[0] {
				case kindHome:
					p, err := decodePayload(rec)
					if err != nil {
						return err
					}
					st.Live++
					st.PayloadSize += int64(len(p))
				case kindStub:
					st.Live++
					st.Forwarded++
				case kindMoved:
					p, err := decodePayload(rec)
					if err != nil {
						return err
					}
					st.PayloadSize += int64(len(p))
				}
			}
			return nil
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}
