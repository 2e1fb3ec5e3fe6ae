package pfs

// Tests for the hand-over write (HandOverAtRetry): the store keeps each page
// a request covers whole as a slice of the caller's buffer, copies the rest,
// and charges, rolls and counts exactly what an ordinary write does.

import (
	"bytes"
	"testing"

	"github.com/tcio/tcio/internal/faults"
)

// spanOff and spanLen place a request over [pageSize−100, 3·pageSize+100):
// a 100-byte head in page 0, pages 1 and 2 whole, a 100-byte tail in page 3.
const spanOff, spanLen = pageSize - 100, 2*pageSize + 200

func spanData() []byte {
	data := make([]byte, spanLen)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	return data
}

func TestHandOverKeepsWholePages(t *testing.T) {
	f := New(testConfig()).Open("h")
	data := spanData()
	if _, _, err := f.HandOverAtRetry(0, spanOff, data, 0, faults.NoRetry()); err != nil {
		t.Fatal(err)
	}
	for page, at := range map[int64]int{1: 100, 2: 100 + pageSize} {
		p := f.pages[page]
		if &p[0] != &data[at] || len(p) != pageSize || cap(p) != pageSize {
			t.Errorf("page %d is not data[%d:%d:%d]", page, at, at+pageSize, at+pageSize)
		}
	}
	if &f.pages[0][pageSize-100] == &data[0] {
		t.Error("head page aliases the caller's buffer")
	}
	if &f.pages[3][0] == &data[spanLen-100] {
		t.Error("tail page aliases the caller's buffer")
	}
	want := append(make([]byte, spanOff), data...)
	// Head and tail are copies: the caller's later bytes there do not reach
	// the file.
	data[0], data[spanLen-1] = ^data[0], ^data[spanLen-1]
	if got := f.Snapshot(); !bytes.Equal(got, want) {
		t.Fatal("file differs from the handed-over bytes outside the kept pages")
	}
}

func TestOrdinaryWriteCopiesEveryPage(t *testing.T) {
	f := New(testConfig()).Open("w")
	data := spanData()
	if _, err := f.WriteAt(0, spanOff, data, 0); err != nil {
		t.Fatal(err)
	}
	// Each page's first written byte against the caller's byte it holds.
	for _, c := range []struct {
		page   int64
		in, at int
	}{{0, pageSize - 100, 0}, {1, 0, 100}, {2, 0, 100 + pageSize}, {3, 0, spanLen - 100}} {
		if &f.pages[c.page][c.in] == &data[c.at] {
			t.Errorf("page %d aliases the caller's buffer", c.page)
		}
	}
	want := append(make([]byte, spanOff), data...)
	for i := range data {
		data[i] = ^data[i]
	}
	if got := f.Snapshot(); !bytes.Equal(got, want) {
		t.Fatal("changing the caller's buffer after WriteAt returned changed the file")
	}
}

// TestHandOverPagesServeLaterOperations: a kept page is the file's: an
// ordinary write into it, a read, a snapshot and a truncate see what a
// dense reference holds.
func TestHandOverPagesServeLaterOperations(t *testing.T) {
	f := New(testConfig()).Open("later")
	data := spanData()
	want := append(make([]byte, spanOff), data...)
	if _, _, err := f.HandOverAtRetry(0, spanOff, data, 0, faults.NoRetry()); err != nil {
		t.Fatal(err)
	}
	patch := []byte("written into a kept page, across into the next")
	at := int64(2*pageSize - 20)
	if _, err := f.WriteAt(1, at, patch, 0); err != nil {
		t.Fatal(err)
	}
	copy(want[at:], patch)
	got := make([]byte, 300)
	if _, err := f.ReadAt(0, at-100, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[at-100:at+200]) {
		t.Fatal("ReadAt across a kept page differs from the reference")
	}
	if snap := f.Snapshot(); !bytes.Equal(snap, want) {
		t.Fatal("Snapshot differs from the reference")
	}
	if _, _, err := f.TruncateAtRetry(0, 0, faults.NoRetry()); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("size %d after truncate", f.Size())
	}
	if _, err := f.ReadAt(0, pageSize, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("a kept page survived the truncate")
	}
}

// TestHandOverFaultRetryMatchesWrite: an injected OST write fault and its
// retry store the bytes once, with the completion, retries, Stats and oplog
// record of an ordinary write; the record is a copy either way.
func TestHandOverFaultRetryMatchesWrite(t *testing.T) {
	type outcome struct {
		end     int64
		retries int64
		stats   Stats
		image   []byte
	}
	do := func(handOver bool) outcome {
		cfg := testConfig()
		cfg.Faults = faults.New(3).Set(faults.SiteOSTWrite, faults.Rule{Prob: 1, MaxInjected: 1})
		fs := New(cfg)
		log := &Oplog{}
		fs.SetOplog(log)
		f := fs.Open("retry")
		data := spanData()
		write := f.WriteAtRetry
		if handOver {
			write = f.HandOverAtRetry
		}
		end, retries, err := write(2, spanOff, data, 0, faults.DefaultRetryPolicy())
		if err != nil {
			t.Fatal(err)
		}
		var stores []OpRecord
		for _, r := range log.Records() {
			if r.Kind == OpStore {
				stores = append(stores, r)
			}
		}
		if len(stores) != 1 || stores[0].Off != spanOff || !bytes.Equal(stores[0].Data, data) {
			t.Fatalf("handOver=%v: oplog stores %d records, want one of the request", handOver, len(stores))
		}
		if &stores[0].Data[100] == &data[100] {
			t.Fatalf("handOver=%v: the oplog record aliases the caller's buffer", handOver)
		}
		return outcome{int64(end), retries, fs.Stats(), f.Snapshot()}
	}
	plain, kept := do(false), do(true)
	if plain.stats.FaultsInjected != 1 || plain.stats.Retries != 1 || plain.stats.Writes != 1 ||
		plain.stats.BytesWritten != spanLen {
		t.Fatalf("ordinary write: stats %+v, want one fault, one retry, one write of %d bytes", plain.stats, spanLen)
	}
	if kept.end != plain.end || kept.retries != plain.retries || kept.stats != plain.stats {
		t.Fatalf("hand-over (end %d, retries %d, %+v) differs from write (end %d, retries %d, %+v)",
			kept.end, kept.retries, kept.stats, plain.end, plain.retries, plain.stats)
	}
	if !bytes.Equal(kept.image, plain.image) {
		t.Fatal("hand-over and ordinary write leave different file images")
	}
}
