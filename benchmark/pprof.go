package main

// A small reader for the pprof Profile protobuf message (go.mod has no
// dependencies, so golang.org/x/... is out of reach), and the rule that
// maps a profile sample to a layer: the innermost frame under
// github.com/tcio/tcio/internal/<pkg> names the layer. The same rule
// serves CPU, mutex and block profiles, which runtime/pprof all writes in
// this format.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Field numbers of the messages read (profile.proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// profSampleRec is one sample: its stack, leaf first, and its values.
type profSampleRec struct {
	locations []uint64
	values    []int64
}

// profile is the subset of a pprof Profile the attribution needs.
type profile struct {
	samples   []profSampleRec
	locations map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	functions map[uint64]uint64   // function id -> name's string table index
	strings   []string
}

var errTruncated = errors.New("pprof: truncated message")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value or
// its length-delimited payload. Fixed-width fields are skipped (payload nil,
// value 0); the messages read here have none that matter.
func (p *pbuf) next() (field int, value uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		value, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errTruncated
		}
		payload, p.b = p.b[:n:n], p.b[n:]
	default:
		err = fmt.Errorf("pprof: wire type %d", key&7)
	}
	return field, value, payload, err
}

func (p *pbuf) skip(n int) error {
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field's values, packed
// (payload) or not (value).
func repeatedVarint(dst []uint64, value uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, value), nil
	}
	p := pbuf{payload}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile reads a pprof profile, gzip-compressed (as runtime/pprof
// writes it) or raw.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	prof := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	top := pbuf{data}
	for len(top.b) > 0 {
		field, _, payload, err := top.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case profStringTable:
			prof.strings = append(prof.strings, string(payload))
		case profSample:
			if err := prof.addSample(payload); err != nil {
				return nil, err
			}
		case profLocation:
			if err := prof.addLocation(payload); err != nil {
				return nil, err
			}
		case profFunction:
			if err := prof.addFunction(payload); err != nil {
				return nil, err
			}
		}
	}
	return prof, nil
}

func (prof *profile) addSample(msg []byte) error {
	var s profSampleRec
	p := pbuf{msg}
	for len(p.b) > 0 {
		field, value, payload, err := p.next()
		if err != nil {
			return err
		}
		switch field {
		case sampleLocationID:
			if s.locations, err = repeatedVarint(s.locations, value, payload); err != nil {
				return err
			}
		case sampleValue:
			vals, err := repeatedVarint(nil, value, payload)
			if err != nil {
				return err
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
		}
	}
	prof.samples = append(prof.samples, s)
	return nil
}

func (prof *profile) addLocation(msg []byte) error {
	var id uint64
	var funcs []uint64
	p := pbuf{msg}
	for len(p.b) > 0 {
		field, value, payload, err := p.next()
		if err != nil {
			return err
		}
		switch field {
		case locationID:
			id = value
		case locationLine:
			// Lines list inlined frames innermost first; the last is the
			// function the others were inlined into.
			lp := pbuf{payload}
			for len(lp.b) > 0 {
				f, v, _, err := lp.next()
				if err != nil {
					return err
				}
				if f == lineFunctionID {
					funcs = append(funcs, v)
				}
			}
		}
	}
	prof.locations[id] = funcs
	return nil
}

func (prof *profile) addFunction(msg []byte) error {
	var id, name uint64
	p := pbuf{msg}
	for len(p.b) > 0 {
		field, value, _, err := p.next()
		if err != nil {
			return err
		}
		switch field {
		case functionID:
			id = value
		case functionName:
			name = value
		}
	}
	prof.functions[id] = name
	return nil
}

// stack returns a sample's function names, innermost first.
func (prof *profile) stack(s profSampleRec) []string {
	var out []string
	for _, loc := range s.locations {
		for _, fn := range prof.locations[loc] {
			if idx := prof.functions[fn]; idx < uint64(len(prof.strings)) {
				out = append(out, prof.strings[idx])
			}
		}
	}
	return out
}

// byLayer sums each sample's last value (cpu nanoseconds, or delay
// nanoseconds for mutex and block profiles) under its layer.
func (prof *profile) byLayer() map[string]int64 {
	out := map[string]int64{}
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		out[layerOf(prof.stack(s))] += s.values[len(s.values)-1]
	}
	return out
}

// tcioWriteAt is the frame tcio.writeat.host_ns_per_call is priced under.
const tcioWriteAt = internalPrefix + "tcio.(*File).WriteAt"

// under sums the last value of every sample with fn anywhere on its stack:
// the function's inclusive cost.
func (prof *profile) under(fn string) int64 {
	var total int64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		for _, frame := range prof.stack(s) {
			if frame == fn {
				total += s.values[len(s.values)-1]
				break
			}
		}
	}
	return total
}

const (
	internalPrefix = "github.com/tcio/tcio/internal/"
	// layerBenchmark collects samples whose innermost repo frame is this
	// program itself: input generation, verification, the probes.
	layerBenchmark = "benchmark"
	// layerRuntime collects samples with no repo caller at all: the
	// garbage collector, the scheduler, and the Go runtime under them.
	layerRuntime = "runtime"
)

// layerOf names the layer a stack (innermost frame first) is charged to:
// the package of the innermost frame under internal/; failing that, the
// benchmark itself if it is anywhere on the stack; failing that, the Go
// runtime.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		// The program's own frames are main.* in the binary and carry the
		// import path in the test binary.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "github.com/tcio/tcio/benchmark.") {
			return layerBenchmark
		}
	}
	return layerRuntime
}
