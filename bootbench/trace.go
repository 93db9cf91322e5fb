package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/nbd"
)

// The traced run wraps three boundaries from outside the program: the
// device handed to the NBD export (the session chain), the store and files
// handed to the manager as Backing (the rblock client to the storage node),
// and Manager.Boot / Session.Close. Each call becomes a span with a parent
// and a guest; spans stay in memory and are folded into the per-layer
// metrics after each iteration, off the timed path.

type spanKind uint8

const (
	kBoot     spanKind = iota // Manager.Boot
	kAttach                   // NBD export + client dial
	kClose                    // Session.Close
	kNBDRead                  // nbd.Client calls, as the guest makes them
	kNBDWrite                 //
	kNBDFlush                 //
	kDevRead                  // calls on the device handed to the export
	kDevWrite                 //
	kDevFlush                 //
	kBRead                    // Backing file calls: the rblock client
	kBWrite                   //
	kBSync                    //
	kBOpen                    // Backing store opens and stats
)

var kindNames = [...]string{
	"cachemgr.boot", "nbd.attach", "cachemgr.close",
	"nbd.read", "nbd.write", "nbd.flush",
	"core.read", "core.write", "core.flush",
	"rblock.read", "rblock.write", "rblock.sync", "rblock.open",
}

func (k spanKind) MarshalText() ([]byte, error) { return []byte(kindNames[k]), nil }

// span is one traced call. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64    `json:"id"`
	Parent int64    `json:"parent"`
	Guest  int      `json:"guest"`
	Kind   spanKind `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Bytes  int64    `json:"bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// guestState tracks the spans a guest currently has open. A guest issues
// one NBD request at a time, so it has at most one of each.
type guestState struct {
	boot, op, dev atomic.Int64
}

type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span

	guests [guestsPerIter]guestState

	// goroutines maps a guest goroutine's id to its guest while it boots,
	// so calls the manager makes on that goroutine (backing opens, log
	// lines) are attributed to it.
	gmu        sync.Mutex
	goroutines map[int64]int
	warmer     atomic.Int32 // guest whose Boot warmed the cache this iteration, or -1
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), goroutines: make(map[int64]int)}
	t.warmer.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	s := t.spans
	t.spans = nil
	t.mu.Unlock()
	return s
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// enter binds the calling goroutine to guest g; leave unbinds it.
func (t *tracer) enter(g int) {
	t.gmu.Lock()
	t.goroutines[goid()] = g
	t.gmu.Unlock()
}

func (t *tracer) leave() {
	t.gmu.Lock()
	delete(t.goroutines, goid())
	t.gmu.Unlock()
}

// callerGuest reports the guest bound to the calling goroutine, or -1.
func (t *tracer) callerGuest() int {
	id := goid()
	t.gmu.Lock()
	defer t.gmu.Unlock()
	if g, ok := t.goroutines[id]; ok {
		return g
	}
	return -1
}

// managerLog is the managers' Logf: a line announcing a finished warm
// comes from the goroutine that warmed, which names the warming guest.
func (t *tracer) managerLog(format string, _ ...any) {
	if !t.on.Load() {
		return
	}
	if strings.Contains(format, "warmed") || strings.Contains(format, "pulled") {
		if g := t.callerGuest(); g >= 0 {
			t.warmer.Store(int32(g))
		}
	}
}

// parentOf is the open span a backing call of guest g runs under: the
// device call in progress, else the Boot call.
func (t *tracer) parentOf(g int) int64 {
	if g < 0 {
		return 0
	}
	if id := t.guests[g].dev.Load(); id != 0 {
		return id
	}
	return t.guests[g].boot.Load()
}

// tracedDevice is the device handed to the NBD export in traced iterations.
type tracedDevice struct {
	t *tracer
	g int
	d nbd.Device
}

func (d *tracedDevice) call(k spanKind, n int64, fn func() error) error {
	gs := &d.t.guests[d.g]
	s := span{ID: d.t.ids.Add(1), Parent: gs.op.Load(), Guest: d.g, Kind: k, Bytes: n, Start: d.t.now()}
	gs.dev.Store(s.ID)
	err := fn()
	gs.dev.Store(0)
	s.End = d.t.now()
	d.t.record(s)
	return err
}

func (d *tracedDevice) ReadAt(p []byte, off int64) (n int, err error) {
	d.call(kDevRead, int64(len(p)), func() error { n, err = d.d.ReadAt(p, off); return err }) //nolint:errcheck // returned below
	return n, err
}

func (d *tracedDevice) WriteAt(p []byte, off int64) (n int, err error) {
	d.call(kDevWrite, int64(len(p)), func() error { n, err = d.d.WriteAt(p, off); return err }) //nolint:errcheck // returned below
	return n, err
}

func (d *tracedDevice) Sync() error { return d.call(kDevFlush, 0, d.d.Sync) }
func (d *tracedDevice) Size() int64 { return d.d.Size() }

// tracedStore wraps the managers' Backing store.
type tracedStore struct {
	t *tracer
	s backend.Store
}

func (s *tracedStore) Open(name string, readOnly bool) (backend.File, error) {
	if !s.t.on.Load() {
		f, err := s.s.Open(name, readOnly)
		if err != nil {
			return nil, err
		}
		return &tracedFile{t: s.t, f: f, g: -1}, nil
	}
	g := s.t.callerGuest()
	sp := span{ID: s.t.ids.Add(1), Parent: s.t.parentOf(g), Guest: g, Kind: kBOpen, Start: s.t.now()}
	f, err := s.s.Open(name, readOnly)
	sp.End = s.t.now()
	s.t.record(sp)
	if err != nil {
		return nil, err
	}
	return &tracedFile{t: s.t, f: f, g: g}, nil
}

func (s *tracedStore) Stat(name string) (int64, error) {
	if !s.t.on.Load() {
		return s.s.Stat(name)
	}
	g := s.t.callerGuest()
	sp := span{ID: s.t.ids.Add(1), Parent: s.t.parentOf(g), Guest: g, Kind: kBOpen, Start: s.t.now()}
	n, err := s.s.Stat(name)
	sp.End = s.t.now()
	s.t.record(sp)
	return n, err
}

func (s *tracedStore) Create(name string) (backend.File, error) { return s.s.Create(name) }
func (s *tracedStore) Remove(name string) error                 { return s.s.Remove(name) }

// tracedFile is a Backing file; g is the guest whose Boot opened it (-1
// when opened untraced or outside a guest).
type tracedFile struct {
	t *tracer
	f backend.File
	g int
}

func (f *tracedFile) call(k spanKind, n int64, fn func() error) error {
	if !f.t.on.Load() {
		return fn()
	}
	s := span{ID: f.t.ids.Add(1), Parent: f.t.parentOf(f.g), Guest: f.g, Kind: k, Bytes: n, Start: f.t.now()}
	err := fn()
	s.End = f.t.now()
	f.t.record(s)
	return err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.call(kBRead, int64(len(p)), func() error { n, err = f.f.ReadAt(p, off); return err }) //nolint:errcheck // returned below
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.call(kBWrite, int64(len(p)), func() error { n, err = f.f.WriteAt(p, off); return err }) //nolint:errcheck // returned below
	return n, err
}

func (f *tracedFile) Sync() error            { return f.call(kBSync, 0, f.f.Sync) }
func (f *tracedFile) Size() (int64, error)   { return f.f.Size() }
func (f *tracedFile) Truncate(n int64) error { return f.f.Truncate(n) }
func (f *tracedFile) Close() error           { return f.f.Close() }

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() //nolint:errcheck // already failing
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
