// Command bootbench is the repository's end-to-end boot benchmark. In one
// process, on loopback, it starts a storage node (rblock.Server over a
// backend.DirStore of base images), a node cache manager (cachemgr.Manager
// whose Backing is an rblock.RemoteStore) and an nbd.Server, then boots
// guests the way a hypervisor does: Manager.Boot, export Session.Chain over
// NBD, and replay a generated boot stream through nbd.Client. Two guests
// boot at once in a closed loop, iteration after iteration, for the
// requested time. Every read is checked against the benchmark's own
// oracle, every warm's published cache against the generator, and each
// workload's warm method against what it must be.
//
// Usage (from the repository root; see README.md):
//
//	bash bootbench/run.sh --workload cold-boot --seed 1 --seconds 10 --trace 0
//
// With --trace 1 every other iteration is traced and the run reports
// per-layer metrics instead of end-to-end ones. The last line of standard
// output is one JSON object; the exit status is 0 only if every check held.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setUps is how many times a run sets up; setup_s is their median. Each
// deployment is measured for an equal share of the run's time and torn
// down before the next is set up, so the measurement spans the whole run,
// set-ups included, and a slow spell of the host weighs on a third of it.
const setUps = 3

// tracedSpanIters is how many traced iterations' spans the trace file keeps.
const tracedSpanIters = 4

type bench struct {
	wl       workload
	in       *inputs
	env      *env
	tr       *tracer
	selftest bool
	runs     [guestsPerIter]*guestRun

	want []byte // the checker's scratch: expected read bytes

	ops       counts
	nodeHists map[string]histSum // the booting node's managers
	setupHist map[string]histSum // managers used only in set-up
	counters  map[string]int64
}

type histSum struct{ count, sum int64 }

func (h histSum) meanMs() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count) / 1e6
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: cold-boot, warm-boot, peer-warm or delta-warm")
	seed := flag.Int64("seed", 1, "seed of the generated images and boot stream")
	seconds := flag.Int("seconds", 10, "how long to boot guests")
	trace := flag.Int("trace", 0, "1 traces every other iteration and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's temporary files and trace output")
	selftest := flag.Bool("selftest", false, "flip one byte of the first read a guest receives; the run must fail")
	flag.Parse()

	wl, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bootbench --workload cold-boot|warm-boot|peer-warm|delta-warm --seed N --seconds N --trace 0|1")
		return 2
	}
	out, err := bench1(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir, *selftest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bootbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bootbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench1 runs one workload and returns its result line. An error means the
// run could not be carried out at all (no result is printed).
func bench1(wl workload, seed int64, dur time.Duration, traced bool, workdir string, selftest bool) (*result, error) {
	in, err := generate(wl, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root) //nolint:errcheck // best-effort cleanup

	b := &bench{
		wl: wl, in: in, selftest: selftest,
		nodeHists: map[string]histSum{}, setupHist: map[string]histSum{}, counters: map[string]int64{},
	}
	if traced {
		b.tr = newTracer()
	}
	for g := range b.runs {
		b.runs[g] = newGuestRun(in, g)
	}

	var setupSecs []float64
	var checkErrs []error
	var e2e e2eAcc
	var lay layers
	var keep []span
	// Iterations come in whole rounds over the images; a traced run
	// alternates traced and untraced rounds, so both see every image.
	round := len(in.images)
	if traced {
		round *= 2
	}
	iter := 0
	// phase sets up deployment i and boots guests on it for its share of
	// the run, in whole rounds.
	phase := func(i int) error {
		e, secs, err := timedSetUp(i, wl, in, root, b.tr)
		if err != nil {
			return err
		}
		defer e.close()
		b.env = e
		setupSecs = append(setupSecs, secs)
		if err := b.checkSetUp(); err != nil {
			checkErrs = append(checkErrs, err)
		}
		deadline := time.Now().Add(dur / setUps)
		for len(checkErrs) == 0 {
			tracedIter := traced && (iter/len(in.images))%2 == 0
			res, err := b.iterate(iter, tracedIter)
			if res == nil {
				return err
			}
			if err != nil {
				checkErrs = append(checkErrs, err)
			}
			for _, r := range res.guests {
				b.ops.merge(&r.ops)
				for _, ge := range r.errs {
					fmt.Fprintln(os.Stderr, "bootbench: failed:", ge)
				}
			}
			if tracedIter {
				lay.fold(res, wl.mode)
				if len(lay.tracedBoot) <= guestsPerIter*tracedSpanIters {
					keep = append(keep, res.spans...)
				}
			} else {
				e2e.add(res)
				if (iter+1)%len(in.images) == 0 {
					e2e.endRound()
				}
				if traced {
					for _, r := range res.guests {
						if r.booted {
							lay.untracedBoot = append(lay.untracedBoot, ms(r.boot))
						}
					}
				}
			}
			iter++
			if iter%round == 0 && time.Now().After(deadline) {
				break
			}
		}
		for _, reg := range e.nodeRegs {
			b.gather(reg, b.nodeHists)
		}
		for _, reg := range e.setupRegs {
			b.gather(reg, b.setupHist)
		}
		return nil
	}
	for i := 0; i < setUps; i++ {
		if err := phase(i); err != nil {
			return nil, err
		}
	}

	out := &result{Correct: len(checkErrs) == 0, Metrics: map[string]metric{}}
	for k := range b.ops.attempted {
		out.Attempted += b.ops.attempted[k]
		out.Failed += b.ops.failed[k]
		fmt.Printf("ops %-8s attempted %8d  failed %d\n", opNames[k], b.ops.attempted[k], b.ops.failed[k])
	}
	for _, err := range checkErrs {
		fmt.Fprintln(os.Stderr, "bootbench: check failed:", err)
	}
	e2eMetrics := e2e.metrics(median(setupSecs))
	if traced {
		out.Metrics = b.layerMetrics(&lay)
		out.Metrics["runtime.cpu_ms_per_boot"] = metric{median(e2e.cpuPerBoot), "ms"}
		ledgerOnly := b.ledgerMetrics(&lay)
		report(os.Stderr, "ledger-only", ledgerOnly)
		path := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(path, keep); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bootbench: spans of the first %d traced iterations in %s\n", tracedSpanIters, path)
		if u := median(lay.unattributed); u > ledgerBound {
			fmt.Fprintf(os.Stderr, "bootbench: ledger leaves %.1f%% of boot_ms unattributed, above the %.0f%% bound\n", 100*u, 100*ledgerBound)
		}
		report(os.Stderr, "untraced iterations, end to end", e2eMetrics)
	} else {
		out.Metrics = e2eMetrics
	}
	report(os.Stdout, wl.name, out.Metrics)
	return out, nil
}

// checkSetUp verifies the pre-warmed state a workload starts from, and for
// delta-warm measures each image's true delta between its two versions'
// caches.
func (b *bench) checkSetUp() error {
	e := b.env
	var errs []error
	for _, im := range b.in.images {
		switch b.wl.mode {
		case modeWarm:
			errs = append(errs, checkPublished(e.node.Dir(), e.node.KeyFor(im.name), im, im.base))
		case modePeer:
			errs = append(errs, checkPublished(e.peer.Dir(), e.peer.KeyFor(im.name), im, im.base))
		case modeDelta:
			prev, next := filepath.Join(e.templateOf(im), e.peer.KeyFor(im.prevName)), filepath.Join(e.peer.Dir(), e.peer.KeyFor(im.name))
			errs = append(errs,
				checkPublished(e.peer.Dir(), e.peer.KeyFor(im.name), im, im.base),
				checkPublished(e.templateOf(im), e.peer.KeyFor(im.prevName), im, im.prev))
			d, err := fileDelta(prev, next)
			im.trueDelta = d
			errs = append(errs, err)
			if err == nil && d == 0 {
				errs = append(errs, fmt.Errorf("delta-warm: the two versions of %s have identical caches", im.name))
			}
		}
	}
	return errors.Join(errs...)
}

// fileDelta is the number of bytes in which two files differ, counted in
// whole 4 KiB blocks (as TestDedupBounds measures the true delta).
func fileDelta(a, b string) (int64, error) {
	pa, err := os.ReadFile(a)
	if err != nil {
		return 0, err
	}
	pb, err := os.ReadFile(b)
	if err != nil {
		return 0, err
	}
	const blk = 4 << 10
	var d int64
	for off := 0; off < max(len(pa), len(pb)); off += blk {
		x := pa[min(off, len(pa)):min(off+blk, len(pa))]
		y := pb[min(off, len(pb)):min(off+blk, len(pb))]
		if !bytes.Equal(x, y) {
			d += blk
		}
	}
	return d, nil
}

// e2eAcc accumulates the end-to-end metrics over untraced iterations, and
// the process CPU time per boot that a traced run reports as a per-layer
// metric of the Go runtime. Latency medians, throughput and CPU per boot
// are taken per round over the images and reported as the median over
// rounds, so a burst of load from elsewhere on the host moves one round,
// not the run's figure.
type e2eAcc struct {
	bootMs, firstMs []float64
	boots           int64
	storage, wire   int64

	round                 roundAcc
	readP50, writeP50     []float64
	bootsPerS, cpuPerBoot []float64
}

// roundAcc is one round's samples.
type roundAcc struct {
	readNs, writeNs []int64
	wall, cpu       time.Duration
	boots           int64
}

func (a *e2eAcc) add(res *iterResult) {
	r := &a.round
	for _, g := range res.guests {
		if !g.booted {
			continue
		}
		a.boots++
		r.boots++
		a.bootMs = append(a.bootMs, ms(g.boot))
		a.firstMs = append(a.firstMs, ms(g.firstRead))
		r.readNs = append(r.readNs, g.readLat...)
		r.writeNs = append(r.writeNs, g.writeLat...)
	}
	r.wall += res.wall
	r.cpu += res.cpu
	a.storage += res.storage
	a.wire += res.wire
}

// endRound closes a round over the images.
func (a *e2eAcc) endRound() {
	r := &a.round
	if r.boots == 0 {
		return
	}
	a.readP50 = append(a.readP50, quantileNs(r.readNs, 0.50)/1e3)
	a.writeP50 = append(a.writeP50, quantileNs(r.writeNs, 0.50)/1e3)
	a.bootsPerS = append(a.bootsPerS, float64(r.boots)/r.wall.Seconds())
	a.cpuPerBoot = append(a.cpuPerBoot, ms(r.cpu)/float64(r.boots))
	*r = roundAcc{readNs: r.readNs[:0], writeNs: r.writeNs[:0]}
}

func (a *e2eAcc) metrics(setupS float64) map[string]metric {
	boots := float64(max(a.boots, 1))
	return map[string]metric{
		"setup_s":             {setupS, "s"},
		"boot_ms":             {median(a.bootMs), "ms"},
		"first_read_ms":       {median(a.firstMs), "ms"},
		"boots_per_s":         {median(a.bootsPerS), "1/s"},
		"read_us_p50":         {median(a.readP50), "us"},
		"write_us_p50":        {median(a.writeP50), "us"},
		"storage_MB_per_boot": {float64(a.storage) / 1e6 / boots, "MB"},
		"wire_MB_per_boot":    {float64(a.wire) / 1e6 / boots, "MB"},
		"peak_rss_MB":         {float64(peakRSS()) / 1e6, "MB"},
	}
}

// layerMetrics are the traced run's per-layer metrics.
func (b *bench) layerMetrics(l *layers) map[string]metric {
	boots := float64(max(l.boots, 1))
	us := func(ns []int64, q float64) float64 { return quantileNs(ns, q) / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	fetched := l.warmFetched + l.corBytes
	return map[string]metric{
		"nbd.read_self_us_p50":  {us(l.nbdReadSelf, 0.5), "us"},
		"nbd.write_self_us_p50": {us(l.nbdWriteSelf, 0.5), "us"},

		"core.read_us_p50":  {us(l.coreRead, 0.5), "us"},
		"core.read_us_p99":  {us(l.coreRead, 0.99), "us"},
		"core.write_us_p50": {us(l.coreWrite, 0.5), "us"},
		"core.flush_us_p50": {us(l.coreFlush, 0.5), "us"},

		"qcow.read_self_us_p50":     {us(l.qcowReadSelf, 0.5), "us"},
		"qcow.cache_hit_ratio":      {ratio(float64(l.cacheLocal), float64(l.cacheAsked)), "ratio"},
		"qcow.cow_fill_MB_per_boot": {float64(l.cowFill) / 1e6 / boots, "MB"},
		"qcow.cor_fill_MB_per_warm": {ratio(float64(l.corBytes)/1e6, float64(l.corWarms)), "MB"},
		"qcow.l2_miss_ratio":        {ratio(float64(l.l2Misses), float64(l.l2Hits+l.l2Misses)), "ratio"},

		"rblock.read_us_p50":           {us(l.rbRead, 0.5), "us"},
		"rblock.read_us_p99":           {us(l.rbRead, 0.99), "us"},
		"rblock.reads_per_boot":        {float64(l.rbReads) / boots, "count"},
		"rblock.opens_per_boot":        {float64(l.rbOpens) / boots, "count"},
		"rblock.syncs_per_flush":       {ratio(float64(l.flushSyncs), float64(l.devFlushes)), "count"},
		"rblock.sync_us_p50":           {us(l.rbSync, 0.5), "us"},
		"rblock.storage_amplification": {ratio(float64(l.storage), float64(l.uniqueRead)), "ratio"},

		"cachemgr.close_ms":          {quantileNs(l.closeNs, 0.5) / 1e6, "ms"},
		"cachemgr.warm_ms":           {b.nodeHists["vmicache_cachemgr_warm_duration_ns"].meanMs(), "ms"},
		"cachemgr.warm_useful_ratio": {ratio(float64(l.warmUnique), float64(fetched)), "ratio"},

		"dedup.wire_ratio":       {ratio(float64(l.dedupWire), float64(l.trueDelta)), "ratio"},
		"dedup.reused_MB":        {ratio(float64(l.dedupReused)/1e6, float64(l.deltaWarms)), "MB"},
		"dedup.chunks_per_batch": {ratio(float64(b.counters["vmicache_dedup_chunk_batch_chunks_total"]), float64(b.counters["vmicache_dedup_chunk_batches_total"])), "count"},

		"zerocopy.share": {ratio(float64(l.zeroCopy), float64(l.exportBytes)), "ratio"},

		"runtime.alloc_MB_per_boot": {float64(l.allocBytes) / 1e6 / boots, "MB"},
		"runtime.gc_per_boot":       {float64(l.gcs) / boots, "count"},

		"trace.overhead_share":      {median(l.tracedBoot)/median(l.untracedBoot) - 1, "ratio"},
		"ledger.unattributed_share": {median(l.unattributed), "ratio"},
		"ledger.cachemgr_share":     {mean(l.ledger[ledgerCachemgr]), "ratio"},
		"ledger.nbd_share":          {mean(l.ledger[ledgerNBD]), "ratio"},
		"ledger.qcow_share":         {mean(l.ledger[ledgerQcow]), "ratio"},
		"ledger.rblock_share":       {mean(l.ledger[ledgerRblock]), "ratio"},
		"ledger.traced_boot_ms":     {median(l.tracedBoot), "ms"},
		"ledger.untraced_boot_ms":   {median(l.untracedBoot), "ms"},
	}
}

// ledgerMetrics are the per-layer times that exist only on some workloads
// (reported on standard error and in the README, not in the result line).
func (b *bench) ledgerMetrics(l *layers) map[string]metric {
	return map[string]metric{
		"cachemgr.warmer_boot_ms": {quantileNs(l.warmerBoot, 0.5) / 1e6, "ms"},
		"cachemgr.waiter_boot_ms": {quantileNs(l.waiterBoot, 0.5) / 1e6, "ms"},
		"cachemgr.attach_ms":      {quantileNs(l.attachB, 0.5) / 1e6, "ms"},
		"dedup.build_ms":          {b.setupHist["vmicache_dedup_build_duration_ns"].meanMs(), "ms"},
		"dedup.materialize_ms":    {b.nodeHists["vmicache_dedup_materialize_duration_ns"].meanMs(), "ms"},
	}
}

// report prints metrics one per line, sorted by name.
func report(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "%-30s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quantileNs is the nearest-rank q-quantile of ns (0 for none).
func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}
