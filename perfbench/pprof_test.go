package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"impress/internal/memctrl.(*Controller).schedule": "impress/internal/memctrl",
		"impress/internal/sim.(*simulator).run.func1":     "impress/internal/sim",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKey":              "internal/runtime/maps",
		"compress/flate.(*compressor).deflate":                 "compress/flate",
		"slices.SortFunc[go.shape.[]impress/internal/x.T,int]": "slices",
		"main.main": "main",
		"":          "",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"impress/internal/memctrl": "memctrl",
		"impress/internal/trace":   "trace",
		"impress/internal/stats":   "other", // not a reported layer
		"impress":                  "other",
		"runtime":                  "runtime",
		"internal/runtime/maps":    "runtime",
		"runtime/pprof":            "other",
		"encoding/json":            "encoding_json",
		"compress/flate":           "compress_flate",
		"":                         "other",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(num int, v uint64) *pb {
	p.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(num)<<3), v))
	return p
}

func (p *pb) msg(num int, b []byte) *pb {
	p.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(num)<<3|2), uint64(len(b))))
	p.Write(b)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return p.msg(num, b)
}

func gz(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testProfile has three functions, one location whose leaf is inlined
// into its caller, and samples in both repeated-field encodings.
func testProfile(t *testing.T) []byte {
	var p pb
	// string table: index 0 is always "".
	for _, s := range []string{"", "impress/internal/memctrl.(*Controller).schedule",
		"impress/internal/dram.(*Bank).CanColumn", "runtime.mallocgc"} {
		p.msg(profStrings, []byte(s))
	}
	fn := func(id, name uint64) []byte {
		var f pb
		return f.varint(functionID, id).varint(functionName, name).Bytes()
	}
	p.msg(profFunction, fn(1, 1)).msg(profFunction, fn(2, 2)).msg(profFunction, fn(3, 3))
	line := func(fid uint64) []byte {
		var l pb
		return l.varint(lineFunction, fid).Bytes()
	}
	loc := func(id uint64, fids ...uint64) []byte {
		var l pb
		l.varint(locationID, id)
		for _, f := range fids {
			l.msg(locationLine, line(f))
		}
		return l.Bytes()
	}
	// Location 10: dram's CanColumn inlined into memctrl's schedule.
	p.msg(profLocation, loc(10, 2, 1)).msg(profLocation, loc(11, 1)).msg(profLocation, loc(12, 3))
	sample := func(pk bool, count uint64, locs ...uint64) []byte {
		var s pb
		if pk {
			s.packed(sampleLocation, locs...).packed(sampleValue, count, count*10_000_000)
		} else {
			for _, l := range locs {
				s.varint(sampleLocation, l)
			}
			s.varint(sampleValue, count).varint(sampleValue, count*10_000_000)
		}
		return s.Bytes()
	}
	p.msg(profSample, sample(true, 3, 10, 11)) // leaf: dram
	p.msg(profSample, sample(false, 5, 11))    // leaf: memctrl
	p.msg(profSample, sample(true, 2, 12, 11)) // leaf: runtime
	p.varint(profPeriod, 10_000_000)
	return gz(t, p.Bytes())
}

func TestLayerSamples(t *testing.T) {
	lp, err := layerSamples(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"dram": 3, "memctrl": 5, "runtime": 2}
	if lp.total != 10 || len(lp.samples) != len(want) {
		t.Fatalf("got %v total %d, want %v total 10", lp.samples, lp.total, want)
	}
	for l, n := range want {
		if lp.samples[l] != n {
			t.Errorf("%s: %d samples, want %d", l, lp.samples[l], n)
		}
	}
	if got := lp.share("memctrl"); got != 0.5 {
		t.Errorf("memctrl share %v, want 0.5", got)
	}
	if got := lp.selfNs("dram"); got != 30_000_000 {
		t.Errorf("dram self time %v ns, want 3 samples of 10 ms", got)
	}
}

func TestLayerSamplesRejectsCorruptProfiles(t *testing.T) {
	good := testProfile(t)
	if _, err := layerSamples(good[:len(good)/2]); err == nil {
		t.Error("truncated gzip stream accepted")
	}
	if _, err := layerSamples(gz(t, []byte{0x12, 0x05, 0x08})); err == nil {
		t.Error("truncated protobuf message accepted")
	}
	if _, err := layerSamples([]byte("not a profile")); err == nil {
		t.Error("non-gzip input accepted")
	}
}
