package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/cachemgr"
	"vmicache/internal/metrics"
	"vmicache/internal/nbd"
	"vmicache/internal/qcow"
)

// guestsPerIter is the closed loop's concurrency: two guests, one NBD
// connection each, no think time.
const guestsPerIter = 2

// counts is attempted and failed operations by kind.
type counts struct {
	attempted, failed [opKinds]int64
}

const (
	opBoot = iota
	opWarm
	opRead
	opWrite
	opFlush
	opKinds
)

var opNames = [opKinds]string{"boots", "warms", "reads", "writes", "flushes"}

func (c *counts) add(kind int, err error) {
	c.attempted[kind]++
	if err != nil {
		c.failed[kind]++
	}
}

func (c *counts) merge(o *counts) {
	for k := range c.attempted {
		c.attempted[k] += o.attempted[k]
		c.failed[k] += o.failed[k]
	}
}

// guestRun is one guest's boot in one iteration.
type guestRun struct {
	g, iter int
	vm      string
	im      *image

	booted    bool
	boot      time.Duration // Boot call until the last operation returned
	firstRead time.Duration // Boot call until the first read returned
	readLat   []int64       // ns per read, at the NBD client
	writeLat  []int64
	data      []byte // every read's bytes, in op order
	ops       counts
	errs      []error

	sess   *cachemgr.Session
	client *nbd.Client

	// Read from the session's images before it closes.
	cacheLocal, cacheAsked, cowFill, l2Hits, l2Misses int64
}

func newGuestRun(in *inputs, g int) *guestRun {
	return &guestRun{
		g:        g,
		readLat:  make([]int64, 0, in.maxReads),
		writeLat: make([]int64, 0, in.maxWrites),
		data:     make([]byte, in.maxReadB),
	}
}

func (r *guestRun) reset(iter int, im *image) {
	r.iter = iter
	r.im = im
	r.vm = fmt.Sprintf("vm%d-%d", r.g, iter)
	r.booted = false
	r.boot, r.firstRead = 0, 0
	r.readLat, r.writeLat = r.readLat[:0], r.writeLat[:0]
	r.data = r.data[:im.readBytes]
	clear(r.data)
	r.ops = counts{}
	r.errs = nil
	r.sess, r.client = nil, nil
	r.cacheLocal, r.cacheAsked, r.cowFill, r.l2Hits, r.l2Misses = 0, 0, 0, 0, 0
}

func (r *guestRun) fail(err error) {
	if len(r.errs) < 4 {
		r.errs = append(r.errs, fmt.Errorf("guest %d iteration %d: %w", r.g, r.iter, err))
	}
}

// bootGuest is one guest's timed boot: Manager.Boot, export the session
// chain over NBD, attach, and replay the stream. Nothing else runs on the
// timed path: reads land in r.data and are checked after the iteration.
func (b *bench) bootGuest(m *cachemgr.Manager, r *guestRun, traced bool) {
	im := r.im
	tr := b.tr
	if !traced {
		tr = nil
	}
	var gs *guestState
	if tr != nil {
		gs = &tr.guests[r.g]
		tr.enter(r.g)
		defer tr.leave()
	}

	start := time.Now()
	var bootSpan span
	if tr != nil {
		bootSpan = span{ID: tr.ids.Add(1), Guest: r.g, Kind: kBoot, Start: tr.now()}
		gs.boot.Store(bootSpan.ID)
	}
	sess, err := m.Boot(im.name, r.vm)
	if tr != nil {
		gs.boot.Store(0)
		bootSpan.End = tr.now()
		tr.record(bootSpan)
	}
	r.ops.add(opBoot, err)
	if err != nil {
		r.fail(fmt.Errorf("boot: %w", err))
		return
	}
	r.sess = sess

	var attach span
	if tr != nil {
		attach = span{ID: tr.ids.Add(1), Guest: r.g, Kind: kAttach, Start: tr.now()}
	}
	var dev nbd.Device = sess.Chain
	if tr != nil {
		dev = &tracedDevice{t: tr, g: r.g, d: dev}
	}
	if b.selftest && r.g == 0 && r.iter == 0 {
		dev = &flipDevice{Device: dev}
	}
	b.env.nbd.AddExport(nbd.Export{Name: r.vm, Device: dev})
	c, err := nbd.Dial(b.env.nbdAddr, r.vm)
	if tr != nil {
		attach.End = tr.now()
		tr.record(attach)
	}
	if err != nil {
		r.ops.failed[opBoot]++
		r.fail(fmt.Errorf("nbd attach: %w", err))
		return
	}
	r.client = c
	r.booted = true

	pos, wpos := int64(0), int64(0)
	writes := im.writes[r.g]
	var last time.Time
	for _, op := range im.ops {
		var s span
		if tr != nil {
			s = span{ID: tr.ids.Add(1), Guest: r.g, Bytes: op.Len, Start: tr.now()}
			gs.op.Store(s.ID)
		}
		t0 := time.Now()
		var kind int
		switch op.Kind {
		case boot.Read:
			kind, s.Kind = opRead, kNBDRead
			_, err = c.ReadAt(r.data[pos:pos+op.Len], op.Off)
			pos += op.Len
		case boot.Write:
			kind, s.Kind = opWrite, kNBDWrite
			_, err = c.WriteAt(writes[wpos:wpos+op.Len], op.Off)
			wpos += op.Len
		case boot.Flush:
			kind, s.Kind = opFlush, kNBDFlush
			err = c.Sync()
		}
		last = time.Now()
		if tr != nil {
			gs.op.Store(0)
			s.End = tr.now()
			tr.record(s)
		}
		lat := int64(last.Sub(t0))
		switch kind {
		case opRead:
			r.readLat = append(r.readLat, lat)
			if r.firstRead == 0 {
				r.firstRead = last.Sub(start)
			}
		case opWrite:
			r.writeLat = append(r.writeLat, lat)
		}
		r.ops.add(kind, err)
		if err != nil {
			r.fail(fmt.Errorf("op at %d+%d: %w", op.Off, op.Len, err))
		}
	}
	r.boot = last.Sub(start)
}

// detach ends a guest's boot the way a hypervisor does after shutdown:
// disconnect, drop the export, read the session's image counters, and
// close the session (timed as cachemgr.close).
func (b *bench) detach(r *guestRun, traced bool) {
	if r.client != nil {
		r.client.Close() //nolint:errcheck // disconnect after the last op
		b.env.nbd.RemoveExport(r.vm)
	}
	if r.sess == nil {
		return
	}
	if imgs := r.sess.Chain.Images; len(imgs) > 0 {
		r.cowFill = imgs[0].Stats().CowFillBytes.Load()
		for _, img := range imgs {
			st := img.Stats()
			r.l2Hits += st.L2CacheHits.Load()
			r.l2Misses += st.L2CacheMisses.Load()
		}
	}
	if ci := r.sess.Chain.CacheImage(); ci != nil {
		r.cacheLocal = ci.Stats().LocalBytes.Load()
		r.cacheAsked = ci.Stats().GuestReadBytes.Load()
	}
	var s span
	if traced {
		s = span{ID: b.tr.ids.Add(1), Guest: r.g, Kind: kClose, Start: b.tr.now()}
	}
	if err := r.sess.Close(); err != nil {
		r.fail(fmt.Errorf("session close: %w", err))
	}
	if traced {
		s.End = b.tr.now()
		b.tr.record(s)
	}
}

// flipDevice flips one byte of the first read it serves: the self-test of
// the checker, which must then fail the run.
type flipDevice struct {
	nbd.Device
	once sync.Once
}

func (d *flipDevice) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.Device.ReadAt(p, off)
	if n > 0 {
		d.once.Do(func() { p[n/2] ^= 0x5a })
	}
	return n, err
}

// iterResult is one iteration: two guests booted at once.
type iterResult struct {
	im      *image
	guests  [guestsPerIter]*guestRun
	wall    time.Duration // start of both boots until the last op of either
	cpu     time.Duration // process CPU over the same interval
	storage int64         // bytes the storage node served
	wire    int64         // bytes the node received from storage and peers
	stats   cachemgr.Stats
	exports peerTraffic // the peer's export traffic
	warmer  int         // traced: guest whose Boot warmed, or -1
	spans   []span
	mem     [2]runtime.MemStats
}

type peerTraffic struct{ bytes, zeroCopy int64 }

// iterate runs one iteration and checks it. Node set-up before and checks
// after are outside every timing.
func (b *bench) iterate(iter int, traced bool) (*iterResult, error) {
	e := b.env
	im := b.in.images[iter%len(b.in.images)]
	m, dir := e.node, ""
	if m == nil {
		var err error
		if m, dir, err = e.freshNode(im); err != nil {
			return nil, fmt.Errorf("node set-up: %w", err)
		}
	}
	// Write out the file systems' dirty data and journal, so that the
	// fsyncs of the timed boots (guest flushes, publication) do not also
	// commit the untimed node set-up and clean-up around the iteration
	// before: the node directory linked from the template, the one removed
	// after the last iteration, the sessions' deleted CoW images.
	syscall.Sync()
	res := &iterResult{im: im, warmer: -1}
	for g := range res.guests {
		res.guests[g] = b.runs[g]
		res.guests[g].reset(iter, im)
	}
	before := b.snapshot(m)
	if traced {
		b.tr.warmer.Store(-1)
		b.tr.on.Store(true)
		runtime.ReadMemStats(&res.mem[0])
	}

	var wg sync.WaitGroup
	gate := make(chan struct{})
	for _, r := range res.guests {
		wg.Add(1)
		go func(r *guestRun) {
			defer wg.Done()
			<-gate
			b.bootGuest(m, r, traced)
		}(r)
	}
	cpu0 := cpuTime()
	start := time.Now()
	close(gate)
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if traced {
		runtime.ReadMemStats(&res.mem[1])
	}
	for _, r := range res.guests {
		b.detach(r, traced)
	}
	if traced {
		b.tr.on.Store(false)
		res.warmer = int(b.tr.warmer.Load())
		res.spans = b.tr.take()
	}
	after := b.snapshot(m)
	res.storage = after.storage - before.storage
	res.wire = after.wire - before.wire
	res.stats = statsDelta(after.stats, before.stats)
	res.exports = peerTraffic{after.exports.bytes - before.exports.bytes, after.exports.zeroCopy - before.exports.zeroCopy}

	err := b.check(res, m, iter)
	if dir != "" {
		if cerr := m.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("node close: %w", cerr)
		}
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	}
	return res, err
}

// snap is the counters an iteration is measured by.
type snap struct {
	storage, wire int64
	stats         cachemgr.Stats
	exports       peerTraffic
}

func (b *bench) snapshot(m *cachemgr.Manager) snap {
	st := m.Stats()
	s := snap{
		storage: b.env.store.Stats().BytesRead,
		stats:   st,
		wire:    b.env.client.Stats().BytesIn + st.PeerFetchBytes + st.DedupDeltaBytes,
	}
	if b.env.peer != nil {
		if ex, ok := b.env.peer.ExportStats(); ok {
			s.exports = peerTraffic{ex.BytesRead, ex.ZeroCopyBytes}
		}
	}
	return s
}

// statsDelta is the manager counters an iteration added.
func statsDelta(a, b cachemgr.Stats) cachemgr.Stats {
	return cachemgr.Stats{
		ColdWarms:         a.ColdWarms - b.ColdWarms,
		WarmFailures:      a.WarmFailures - b.WarmFailures,
		PeerFetches:       a.PeerFetches - b.PeerFetches,
		PeerFetchBytes:    a.PeerFetchBytes - b.PeerFetchBytes,
		PeerFallbacks:     a.PeerFallbacks - b.PeerFallbacks,
		Attaches:          a.Attaches - b.Attaches,
		SharedWaits:       a.SharedWaits - b.SharedWaits,
		Published:         a.Published - b.Published,
		DedupRehydrations: a.DedupRehydrations - b.DedupRehydrations,
		DedupDeltaWarms:   a.DedupDeltaWarms - b.DedupDeltaWarms,
		DedupDeltaBytes:   a.DedupDeltaBytes - b.DedupDeltaBytes,
		DedupReusedBytes:  a.DedupReusedBytes - b.DedupReusedBytes,
		SwarmWarms:        a.SwarmWarms - b.SwarmWarms,
	}
}

// check verifies an iteration's outputs against the benchmark's own
// oracle, and the warm each workload's method must (or must not) perform.
// Warm attempts and failures are counted here: a warming workload attempts
// one warm per iteration, and it fails if the manager reports it failed or
// the warm did not happen.
func (b *bench) check(res *iterResult, m *cachemgr.Manager, iter int) error {
	var errs []error
	im := res.im
	for _, r := range res.guests {
		if !r.booted {
			continue
		}
		b.want = im.expect(r.g, b.want)
		if !bytes.Equal(r.data, b.want) {
			errs = append(errs, fmt.Errorf("guest %d iteration %d: %s", r.g, iter, firstMismatch(im, r.data, b.want)))
		}
	}

	st := res.stats
	warms := st.ColdWarms + st.PeerFetches + st.DedupDeltaWarms + st.DedupRehydrations + st.SwarmWarms
	if b.wl.mode != modeWarm {
		var werr error
		if st.WarmFailures > 0 || warms == 0 {
			werr = errors.New("warm failed")
		}
		b.ops.add(opWarm, werr)
	}
	prop := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf("iteration %d: "+format, append([]any{iter}, args...)...))
		}
	}
	switch b.wl.mode {
	case modeCold:
		prop(st.ColdWarms == 1 && warms == 1, "want exactly one copy-on-read warm for two guests, got %+v", st)
	case modePeer:
		prop(st.PeerFetches == 1 && warms == 1 && st.PeerFallbacks == 0,
			"want exactly one wholesale peer pull and no copy-on-read fallback, got %+v", st)
	case modeDelta:
		prop(st.DedupDeltaWarms == 1 && warms == 1, "want exactly one delta warm, got %+v", st)
		prop(float64(st.DedupDeltaBytes) <= deltaWireBound*float64(im.trueDelta),
			"delta warm moved %d bytes, above %.1f x the true delta of %d", st.DedupDeltaBytes, deltaWireBound, im.trueDelta)
	case modeWarm:
		prop(warms == 0 && st.Published == 0, "want no warms on a warm node, got %+v", st)
	}
	if warms > 0 {
		if err := checkPublished(m.Dir(), m.KeyFor(im.name), im, im.base); err != nil {
			errs = append(errs, fmt.Errorf("iteration %d: %w", iter, err))
		}
	}
	return errors.Join(errs...)
}

// deltaWireBound is the bound TestDedupBounds holds a delta warm's wire
// bytes to, as a multiple of the true inter-cache delta.
const deltaWireBound = 1.2

func firstMismatch(im *image, got, want []byte) string {
	i := 0
	for i < len(got) && got[i] == want[i] {
		i++
	}
	var pos int64
	for _, op := range im.ops {
		if op.Kind != boot.Read {
			continue
		}
		if int64(i) < pos+op.Len {
			return fmt.Sprintf("read %d+%d returned wrong data at byte %d", op.Off, op.Len, int64(i)-pos)
		}
		pos += op.Len
	}
	return fmt.Sprintf("read data differs at byte %d", i)
}

// checkPublished reads a published cache of img back over im's warm plan,
// with no backing attached, and compares its content with the generator's.
func checkPublished(dir, key string, im *image, img *content) error {
	f, err := backend.OpenOSFile(filepath.Join(dir, key), true)
	if err != nil {
		return fmt.Errorf("published cache %s: %w", key, err)
	}
	cache, err := qcow.Open(f, qcow.OpenOpts{ReadOnly: true})
	if err != nil {
		f.Close() //nolint:errcheck // already failing
		return fmt.Errorf("published cache %s: %w", key, err)
	}
	defer cache.Close() //nolint:errcheck // read-only
	var maxLen int64
	for _, s := range im.plan {
		maxLen = max(maxLen, s.Len)
	}
	gotBuf, wantBuf := make([]byte, maxLen), make([]byte, maxLen)
	for _, s := range im.plan {
		got, want := gotBuf[:s.Len], wantBuf[:s.Len]
		if err := backend.ReadFull(cache, got, s.Off); err != nil {
			return fmt.Errorf("published cache %s: reading %d+%d: %w", key, s.Off, s.Len, err)
		}
		img.fill(want, s.Off)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("published cache %s holds wrong content in %d+%d", key, s.Off, s.Len)
		}
	}
	return nil
}

// gather folds a manager registry's histograms into hists and its counters
// into the run's totals.
func (b *bench) gather(reg *metrics.Registry, hists map[string]histSum) {
	for _, ms := range reg.Gather() {
		switch {
		case ms.Hist != nil:
			h := hists[ms.Name]
			h.count += ms.Hist.Count
			h.sum += ms.Hist.Sum
			hists[ms.Name] = h
		default:
			b.counters[ms.Name] += ms.Value
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set, in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // KiB on Linux
}
