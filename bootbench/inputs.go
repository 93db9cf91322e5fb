package main

import (
	"bytes"
	"fmt"
	"sort"

	"vmicache/internal/boot"
	"vmicache/internal/core"
)

// Inputs are everything a run generates from its seed: per image, the boot
// stream both guests replay, the warm plan handed to the managers, the base
// content, and the guests' write payloads. Nothing here is timed.

const (
	// scale shrinks the paper's profiles (multi-GB images, 85-196 MB boot
	// working sets) to a size a small host boots many times a second.
	scale = 1.0 / 20

	// baseClusterBits is the storage-side base images' cluster size (the
	// qcow default, 64 KiB).
	baseClusterBits = 16

	// planGap and planMaxLen coalesce the boot stream's reads into the warm
	// plan, with the same knobs the manager's own profile-guided prewarm
	// uses (cachemgr.profilePlanGap/profilePlanMaxLen).
	planGap    = 256 << 10
	planMaxLen = 4 << 20

	// changedShare is the share of the warm plan's bytes that differ
	// between delta-warm's two image versions: the part of the working set
	// the boot first reads in the last quarter of its plan.
	changedShare = 0.25

	sector = 512
)

// extent is a half-open byte range [off, end).
type extent struct{ off, end int64 }

// pattern computes boot.PatternSource bytes a word at a time: the
// benchmark's own oracle for base content.
type pattern struct{ seed int64 }

func (s pattern) fill(p []byte, off int64) {
	for i := 0; i < len(p); {
		pos := off + int64(i)
		word := mix64(uint64(s.seed) ^ uint64(pos>>3)*0x9e3779b97f4a7c15)
		for b := pos & 7; b < 8 && i < len(p); b++ {
			p[i] = byte(word >> (b * 8))
			i++
		}
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// content is a generated base image: PatternSource bytes inside the
// allocated extents (every 64 KiB base cluster the warm plan touches), zero
// elsewhere, as on a thin-provisioned image. A second image version draws
// its changed extents from another pattern.
type content struct {
	size    int64
	pattern pattern
	alloc   []extent // sorted, disjoint, cluster-aligned

	alt     pattern
	changed []extent // sorted, disjoint; empty for a first version
}

// fill sets p to the image content at off.
func (c *content) fill(p []byte, off int64) {
	clear(p)
	end := off + int64(len(p))
	for _, e := range overlap(c.alloc, off, end) {
		c.pattern.fill(p[e.off-off:e.end-off], e.off)
	}
	for _, e := range overlap(c.changed, off, end) {
		c.alt.fill(p[e.off-off:e.end-off], e.off)
	}
}

// overlap clips the sorted extents that intersect [off, end) to it.
func overlap(exts []extent, off, end int64) []extent {
	i := sort.Search(len(exts), func(i int) bool { return exts[i].end > off })
	var out []extent
	for ; i < len(exts) && exts[i].off < end; i++ {
		out = append(out, extent{max(exts[i].off, off), min(exts[i].end, end)})
	}
	return out
}

// image is one image of the workload's guest and its boot.
type image struct {
	name, prevName string // base names on the storage node
	ops            []boot.Op
	reads          int
	readBytes      int64 // per boot, re-reads included
	writeBytes     int64
	uniqueRead     int64
	plan           []core.Span

	base *content
	prev *content // delta-warm: the version the node already holds

	writes    [guestsPerIter][]byte // each guest's write payloads, in op order
	trueDelta int64                 // delta-warm: bytes in which the two versions' caches differ
}

// inputs is one run's generated material.
type inputs struct {
	images    []*image
	maxReads  int
	maxReadB  int64
	maxWrites int
}

// splitmix mixes a seed with a salt into a well-spread 63-bit value.
func splitmix(seed int64, salt uint64) int64 {
	x := uint64(seed) + salt*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// generate builds a run's inputs from the workload and seed. Each image's
// stream is boot.Generate of the scaled profile with its seed replaced.
func generate(wl workload, seed int64) (*inputs, error) {
	if err := checkPattern(seed); err != nil {
		return nil, err
	}
	in := &inputs{}
	prof := wl.profile.Scale(scale)
	for k := 0; k < wl.images; k++ {
		im, err := newImage(wl, prof, seed, k)
		if err != nil {
			return nil, err
		}
		in.images = append(in.images, im)
		in.maxReads = max(in.maxReads, im.reads)
		in.maxReadB = max(in.maxReadB, im.readBytes)
		in.maxWrites = max(in.maxWrites, len(im.ops)-im.reads)
	}
	return in, nil
}

func newImage(wl workload, p boot.Profile, seed int64, k int) (*image, error) {
	salt := uint64(k+1) << 8
	p.Seed = splitmix(seed, salt|1)
	w := boot.Generate(p)
	im := &image{
		name:       fmt.Sprintf("guest%d.img", k),
		ops:        w.Ops,
		writeBytes: w.TotalWriteBytes(),
		uniqueRead: w.UniqueReadBytes(),
		readBytes:  w.TotalReadBytes(),
	}
	for _, op := range w.Ops {
		if op.Kind == boot.Read {
			im.reads++
		}
	}
	if im.reads == 0 || im.writeBytes == 0 {
		return nil, fmt.Errorf("profile %s generated %d reads and %d write bytes", p.Name, im.reads, im.writeBytes)
	}
	for _, e := range w.PrefetchPlan(planGap, planMaxLen) {
		im.plan = append(im.plan, core.Span{Off: e.Off, Len: e.Len})
	}

	alloc := allocated(im.plan, p.ImageSize)
	im.base = &content{size: p.ImageSize, pattern: pattern{splitmix(seed, salt|2)}, alloc: alloc}
	if wl.mode == modeDelta {
		im.prevName = fmt.Sprintf("guest%d-v0.img", k)
		im.prev = im.base
		im.base = &content{
			size: p.ImageSize, pattern: im.prev.pattern, alloc: alloc,
			alt:     pattern{splitmix(seed, salt|3)},
			changed: lateExtents(im.plan, p.ImageSize, changedShare),
		}
	}
	for g := range im.writes {
		buf := make([]byte, 0, im.writeBytes)
		for i, op := range im.ops {
			if op.Kind == boot.Write {
				p := make([]byte, op.Len)
				pattern{splitmix(seed, salt|uint64(16+g)<<32|uint64(i))}.fill(p, op.Off)
				buf = append(buf, p...)
			}
		}
		im.writes[g] = buf
	}
	return im, nil
}

// checkPattern holds the word-at-a-time oracle to boot.PatternSource's
// definition on a sample of offsets.
func checkPattern(seed int64) error {
	for _, off := range []int64{0, 7, 4093, 1 << 20, 12345679} {
		want := boot.PatternSource{Seed: seed, N: 1 << 30}.At(off, 4099)
		got := make([]byte, len(want))
		pattern{seed}.fill(got, off)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("benchmark oracle disagrees with boot.PatternSource at %d", off)
		}
	}
	return nil
}

// expect writes into dst the bytes guest g's reads of im must return, in op
// order: the base content overlaid with the guest's own earlier writes.
func (im *image) expect(g int, dst []byte) []byte {
	if int64(cap(dst)) < im.readBytes {
		dst = make([]byte, 0, im.readBytes)
	}
	dst = dst[:0]
	type write struct {
		off int64
		p   []byte
	}
	var done []write
	var wpos int64
	for _, op := range im.ops {
		switch op.Kind {
		case boot.Write:
			done = append(done, write{op.Off, im.writes[g][wpos : wpos+op.Len]})
			wpos += op.Len
		case boot.Read:
			n := len(dst)
			dst = dst[:n+int(op.Len)]
			want := dst[n:]
			im.base.fill(want, op.Off)
			for _, w := range done {
				lo, hi := max(w.off, op.Off), min(w.off+int64(len(w.p)), op.Off+op.Len)
				if lo < hi {
					copy(want[lo-op.Off:hi-op.Off], w.p[lo-w.off:hi-w.off])
				}
			}
		}
	}
	return dst
}

// allocated rounds the plan out to whole base clusters: the base image's
// allocated extents.
func allocated(plan []core.Span, size int64) []extent {
	const cs = int64(1) << baseClusterBits
	var exts []extent
	for _, s := range plan {
		exts = append(exts, extent{s.Off / cs * cs, min((s.Off+s.Len+cs-1)/cs*cs, size)})
	}
	return merge(exts)
}

// merge sorts extents and folds overlapping or touching ones.
func merge(exts []extent) []extent {
	sort.Slice(exts, func(i, j int) bool { return exts[i].off < exts[j].off })
	var out []extent
	for _, e := range exts {
		if n := len(out); n > 0 && e.off <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, e.end)
			continue
		}
		out = append(out, e)
	}
	return out
}

// lateExtents returns the sectors the plan first touches after share of
// its coverage is already touched, in issue order: the part of the working
// set a boot loads last. The warm lays those clusters out last in the cache
// file, so the changed bytes form one contiguous tail there.
func lateExtents(plan []core.Span, size int64, share float64) []extent {
	seen := make([]uint64, (size/sector+63)/64)
	mark := func(s int64) bool {
		w, b := s/64, uint(s%64)
		if seen[w]&(1<<b) != 0 {
			return false
		}
		seen[w] |= 1 << b
		return true
	}
	var total int64
	for _, s := range plan {
		for sec := s.Off / sector; sec < (s.Off+s.Len+sector-1)/sector; sec++ {
			if mark(sec) {
				total += sector
			}
		}
	}
	clear(seen)
	cut := int64(float64(total) * (1 - share))
	var covered int64
	var out []extent
	for _, s := range plan {
		for sec := s.Off / sector; sec < (s.Off+s.Len+sector-1)/sector; sec++ {
			if !mark(sec) {
				continue
			}
			covered += sector
			if covered > cut {
				out = append(out, extent{sec * sector, (sec + 1) * sector})
			}
		}
	}
	return merge(out)
}
