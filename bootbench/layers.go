package main

// layers folds traced iterations into the per-layer metrics and the
// ledger. A layer's self time is its span minus the spans under it:
//
//	nbd      client op − the device call it caused, plus the attach (export + dial)
//	qcow     device call on the session chain − backing (rblock) calls under it
//	rblock   backing file and store calls
//	cachemgr Manager.Boot − backing calls under it (the warm, or the wait for it)
//
// Along one guest's blocking path these four sum to its traced boot_ms;
// what is left is the replay loop's own time between operations.
type layers struct {
	nbdReadSelf, nbdWriteSelf       []int64
	coreRead, coreWrite, coreFlush  []int64
	qcowReadSelf                    []int64
	rbRead, rbSync                  []int64
	rbReads, rbOpens, flushSyncs    int64
	devFlushes                      int64
	warmerBoot, waiterBoot, attachB []int64
	closeNs                         []int64

	boots                     int64
	ledger                    [4][]float64 // per boot: cachemgr, nbd, qcow, rblock shares of boot_ms
	unattributed              []float64    // per boot: share of boot_ms no layer covers
	tracedBoot, untracedBoot  []float64
	corBytes, corWarms        int64
	warmFetched, warms        int64
	warmUnique, uniqueRead    int64 // unique read bytes of the warmed images, of the booted ones
	trueDelta                 int64
	storage                   int64
	cacheLocal, cacheAsked    int64
	cowFill, l2Hits, l2Misses int64
	dedupWire, dedupReused    int64
	deltaWarms                int64
	exportBytes, zeroCopy     int64
	allocBytes, gcs           uint64
}

const (
	ledgerCachemgr = iota
	ledgerNBD
	ledgerQcow
	ledgerRblock
)

// ledgerBound is the largest share of a traced boot_ms the four layers may
// leave unattributed.
const ledgerBound = 0.05

func isBacking(k spanKind) bool { return k >= kBRead }

// fold adds one traced iteration.
func (l *layers) fold(res *iterResult, mode mode) {
	byID := make(map[int64]*span, len(res.spans))
	under := make(map[int64]int64) // backing time under each span
	devOf := make(map[int64]*span) // device call under each client op
	var bootOf [guestsPerIter]*span
	var attachOf [guestsPerIter]*span
	var lastEnd [guestsPerIter]int64
	var parts [guestsPerIter][4]int64
	for i := range res.spans {
		s := &res.spans[i]
		byID[s.ID] = s
		switch {
		case isBacking(s.Kind):
			under[s.Parent] += s.dur()
		case s.Kind >= kDevRead:
			devOf[s.Parent] = s
		}
	}
	for i := range res.spans {
		s := &res.spans[i]
		g := s.Guest
		switch s.Kind {
		case kBoot:
			bootOf[g] = s
			parts[g][ledgerCachemgr] += s.dur() - under[s.ID]
		case kAttach:
			attachOf[g] = s
			parts[g][ledgerNBD] += s.dur()
		case kClose:
			l.closeNs = append(l.closeNs, s.dur())
		case kNBDRead, kNBDWrite, kNBDFlush:
			self := s.dur()
			if d := devOf[s.ID]; d != nil {
				self -= d.dur()
			}
			parts[g][ledgerNBD] += self
			lastEnd[g] = max(lastEnd[g], s.End)
			switch s.Kind {
			case kNBDRead:
				l.nbdReadSelf = append(l.nbdReadSelf, self)
			case kNBDWrite:
				l.nbdWriteSelf = append(l.nbdWriteSelf, self)
			}
		case kDevRead, kDevWrite, kDevFlush:
			self := s.dur() - under[s.ID]
			parts[g][ledgerQcow] += self
			switch s.Kind {
			case kDevRead:
				l.coreRead = append(l.coreRead, s.dur())
				l.qcowReadSelf = append(l.qcowReadSelf, self)
			case kDevWrite:
				l.coreWrite = append(l.coreWrite, s.dur())
			case kDevFlush:
				l.coreFlush = append(l.coreFlush, s.dur())
				l.devFlushes++
			}
		default: // backing calls
			if g >= 0 && s.Parent != 0 {
				parts[g][ledgerRblock] += s.dur()
			}
			p := byID[s.Parent]
			switch s.Kind {
			case kBRead:
				l.rbRead = append(l.rbRead, s.dur())
				l.rbReads++
				if p != nil && p.Kind == kBoot && res.stats.ColdWarms > 0 {
					l.corBytes += s.Bytes
				}
			case kBSync:
				l.rbSync = append(l.rbSync, s.dur())
				if p != nil && p.Kind == kDevFlush {
					l.flushSyncs++
				}
			case kBOpen:
				l.rbOpens++
			}
		}
	}

	for g, r := range res.guests {
		b := bootOf[g]
		if !r.booted || b == nil || attachOf[g] == nil {
			continue
		}
		l.boots++
		total := float64(lastEnd[g] - b.Start)
		l.tracedBoot = append(l.tracedBoot, total/1e6)
		covered := 0.0
		for k, v := range parts[g] {
			l.ledger[k] = append(l.ledger[k], float64(v)/total)
			covered += float64(v)
		}
		l.unattributed = append(l.unattributed, 1-covered/total)
		switch {
		case mode == modeWarm:
			l.attachB = append(l.attachB, b.dur())
		case res.warmer == g:
			l.warmerBoot = append(l.warmerBoot, b.dur())
		case res.warmer >= 0:
			l.waiterBoot = append(l.waiterBoot, b.dur())
		}
		l.uniqueRead += res.im.uniqueRead
		l.cacheLocal += r.cacheLocal
		l.cacheAsked += r.cacheAsked
		l.cowFill += r.cowFill
		l.l2Hits += r.l2Hits
		l.l2Misses += r.l2Misses
	}

	st := res.stats
	l.corWarms += st.ColdWarms
	warms := st.ColdWarms + st.PeerFetches + st.DedupDeltaWarms
	l.warms += warms
	l.warmUnique += warms * res.im.uniqueRead
	l.trueDelta += st.DedupDeltaWarms * res.im.trueDelta
	l.warmFetched += st.PeerFetchBytes + st.DedupDeltaBytes
	l.dedupWire += st.DedupDeltaBytes
	l.dedupReused += st.DedupReusedBytes
	l.deltaWarms += st.DedupDeltaWarms
	l.storage += res.storage
	l.exportBytes += res.exports.bytes
	l.zeroCopy += res.exports.zeroCopy
	l.allocBytes += res.mem[1].TotalAlloc - res.mem[0].TotalAlloc
	l.gcs += uint64(res.mem[1].NumGC - res.mem[0].NumGC)
}
