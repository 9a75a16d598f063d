package hlog

import (
	"fmt"
	"testing"
)

// TestFlushLead drives hybrid logs through three buffer wraps on one
// thread and checks, after every page turn, that the page the next turn
// evicts is already read-only: its flush was issued a turn ahead, so the
// turn that needs its frame finds the flush done or under way instead of
// starting it. The check reads only the address markers, never a clock.
func TestFlushLead(t *testing.T) {
	for _, c := range []struct {
		pages   int
		mutable float64
	}{{4, 0.9}, {8, 0.9}, {16, 0.9}, {8, 1.0}} {
		t.Run(fmt.Sprintf("pages=%d/mutable=%v", c.pages, c.mutable), func(t *testing.T) {
			l, em, _ := testLog(t, ModeHybrid, c.pages, c.mutable)
			g := em.Acquire()
			defer g.Release()
			tailPage := l.pageOf(l.TailAddress())
			for turns := 0; turns < 3*c.pages; {
				addr, err := l.Allocate(512, g)
				if err != nil {
					t.Fatal(err)
				}
				if l.pageOf(addr) == tailPage {
					continue
				}
				tailPage = l.pageOf(addr)
				turns++
				if tailPage+2 < uint64(c.pages) {
					continue // the first pass evicts nothing
				}
				floor := (tailPage + 2 - uint64(c.pages)) << l.pageBits
				if ro := l.ReadOnlyAddress(); ro < floor {
					t.Fatalf("tail page %d: read-only %#x below %#x, the end of page %d, which the next turn evicts",
						tailPage, ro, floor, tailPage+1-uint64(c.pages))
				}
			}
		})
	}
}
