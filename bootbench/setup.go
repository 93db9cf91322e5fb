package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"vmicache/internal/backend"
	"vmicache/internal/boot"
	"vmicache/internal/cachemgr"
	"vmicache/internal/metrics"
	"vmicache/internal/nbd"
	"vmicache/internal/qcow"
	"vmicache/internal/rblock"
)

// mode selects what state the node starts each iteration in and how its
// cache gets warm.
type mode int

const (
	modeCold  mode = iota // empty node; copy-on-read warm from storage
	modeWarm              // the node already holds the published cache
	modePeer              // empty node; wholesale pull from a peer
	modeDelta             // node holds the previous version; manifest-first delta warm
)

// workload is one named benchmark workload. A run rotates through images
// images of the workload's guest: iteration i boots image i mod images.
// Each image is another boot of the same profile (its own stream, plan and
// content), so a run's figures do not hang on the few stray writes of one
// stream, each of which costs a 64 KiB base L2 read on a warm node.
type workload struct {
	name    string
	profile boot.Profile
	mode    mode
	images  int
}

var workloads = []workload{
	{"cold-boot", boot.CentOS, modeCold, 8},
	{"warm-boot", boot.WindowsServer, modeWarm, 16},
	{"peer-warm", boot.CentOS, modePeer, 8},
	{"delta-warm", boot.CentOS, modeDelta, 8},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// env is one set-up deployment: the storage node holding every image's
// base, the node's storage connection, the NBD server, and whatever
// pre-warmed state the workload starts from.
type env struct {
	wl  workload
	in  *inputs
	dir string
	tr  *tracer // nil unless tracing

	store       *rblock.Server
	storageAddr string
	client      *rblock.Client // the node's storage connection
	backing     backend.Store  // the node managers' Config.Backing

	nbd     *nbd.Server
	nbdAddr string

	node *cachemgr.Manager // warm-boot: the node, warm from set-up

	peer       *cachemgr.Manager // peer-warm, delta-warm
	peerClient *rblock.Client
	peerAddr   string

	template string // delta-warm: per image, a node directory holding its previous version

	nodeRegs  []*metrics.Registry // the booting node's managers
	setupRegs []*metrics.Registry // peer and template managers
	nodeSeq   int
	closed    bool
}

// setUp builds a fresh deployment under dir. On error everything already
// started is torn down.
func setUp(wl workload, in *inputs, dir string, tr *tracer) (e *env, err error) {
	e = &env{wl: wl, in: in, dir: dir, tr: tr}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return e, err
	}
	st, err := backend.NewDirStore(filepath.Join(dir, "storage"))
	if err != nil {
		return e, err
	}
	for _, im := range in.images {
		if err := createBase(st, im.name, im.base); err != nil {
			return e, err
		}
		if im.prev != nil {
			if err := createBase(st, im.prevName, im.prev); err != nil {
				return e, err
			}
		}
	}
	e.store = rblock.NewServer(st, rblock.ServerOpts{})
	if e.storageAddr, err = e.store.Listen("127.0.0.1:0"); err != nil {
		return e, err
	}
	if e.client, err = rblock.Dial(e.storageAddr, 0); err != nil {
		return e, err
	}
	e.backing = rblock.RemoteStore{C: e.client}
	if tr != nil {
		e.backing = &tracedStore{t: tr, s: e.backing}
	}
	e.nbd = nbd.NewServer(nil)
	if e.nbdAddr, err = e.nbd.Listen("127.0.0.1:0"); err != nil {
		return e, err
	}

	switch wl.mode {
	case modeWarm:
		nodeDir := filepath.Join(dir, "node")
		if err := e.warmAll(func(*image) string { return nodeDir }, e.backing, false, &e.nodeRegs); err != nil {
			return e, err
		}
		if e.node, err = e.manager(e.nodeConfig(nodeDir, in.images[0]), &e.nodeRegs); err != nil {
			return e, err
		}
	case modePeer, modeDelta:
		if e.peerClient, err = rblock.Dial(e.storageAddr, 0); err != nil {
			return e, err
		}
		peerDir := filepath.Join(dir, "peer")
		peerStore := rblock.RemoteStore{C: e.peerClient}
		if err := e.warmAll(func(*image) string { return peerDir }, peerStore, false, &e.setupRegs); err != nil {
			return e, err
		}
		cfg := e.nodeConfig(peerDir, in.images[0])
		cfg.Backing, cfg.Peers, cfg.Logf = peerStore, nil, nil
		if e.peer, err = e.manager(cfg, &e.setupRegs); err != nil {
			return e, err
		}
		if e.peerAddr, err = e.peer.ServePeers("127.0.0.1:0"); err != nil {
			return e, err
		}
		if wl.mode == modeDelta {
			e.template = filepath.Join(dir, "template")
			if err := e.warmAll(e.templateOf, e.backing, true, &e.setupRegs); err != nil {
				return e, err
			}
		}
	}
	return e, nil
}

// warmAll publishes in dirOf(im) a cache of every image (of its previous
// version when prev is set), each warmed by copy-on-read from storage
// through a manager configured with that image's own plan, in a directory
// of its own; the managers are closed again and what they published is
// moved into dirOf(im). A manager checks every cache already in its
// directory when it starts, so warming them all in one directory would
// check the first image's cache once per later image.
func (e *env) warmAll(dirOf func(*image) string, backing backend.Store, prev bool, regs *[]*metrics.Registry) error {
	for _, im := range e.in.images {
		name := im.name
		if prev {
			name = im.prevName
		}
		own := filepath.Join(e.dir, "warming", name)
		cfg := e.nodeConfig(own, im)
		cfg.Backing, cfg.Peers, cfg.Logf = backing, nil, nil
		m, err := e.manager(cfg, regs)
		if err != nil {
			return err
		}
		lease, err := m.Acquire(name)
		if err == nil {
			lease.Release()
		}
		if cerr := m.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = moveTree(own, dirOf(im))
		}
		if err != nil {
			return fmt.Errorf("pre-warming %s: %w", name, err)
		}
	}
	return nil
}

// manager starts a manager; when tracing it gets a metrics registry (the
// traced run reads the managers' histograms), added to regs. Untraced, it
// has none, as with the daemon's default of no metrics address.
func (e *env) manager(cfg cachemgr.Config, regs *[]*metrics.Registry) (*cachemgr.Manager, error) {
	if e.tr != nil {
		cfg.Metrics = metrics.NewRegistry()
		*regs = append(*regs, cfg.Metrics)
	}
	return cachemgr.New(cfg)
}

// nodeConfig is the daemon's default configuration (vmicached with no
// flags but -dir and -storage) plus the deployment settings the workload
// names: the image's warm plan, peers, and dedup.
func (e *env) nodeConfig(dir string, im *image) cachemgr.Config {
	cfg := cachemgr.Config{
		Dir:         dir,
		Backing:     e.backing,
		WarmSpans:   im.plan,
		WarmWorkers: 1,
		WarmBudget:  16 << 20,
		ZeroCopy:    true,
	}
	if e.tr != nil {
		cfg.Logf = e.tr.managerLog
	}
	switch e.wl.mode {
	case modePeer:
		cfg.Peers = []string{e.peerAddr}
	case modeDelta:
		cfg.Peers = []string{e.peerAddr}
		cfg.Dedup = true
	}
	return cfg
}

// templateOf is delta-warm's node directory holding im's previous version.
func (e *env) templateOf(im *image) string { return filepath.Join(e.template, im.name) }

// freshNode starts a manager for one iteration booting im: an empty node,
// or for delta-warm a copy of the template node holding im's previous
// version.
func (e *env) freshNode(im *image) (*cachemgr.Manager, string, error) {
	e.nodeSeq++
	dir := filepath.Join(e.dir, fmt.Sprintf("node-%d", e.nodeSeq))
	if e.template != "" {
		if err := linkTree(e.templateOf(im), dir); err != nil {
			return nil, dir, err
		}
	}
	m, err := e.manager(e.nodeConfig(dir, im), &e.nodeRegs)
	return m, dir, err
}

// close stops everything the set-up started and removes its directory;
// closing again does nothing.
func (e *env) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, m := range []*cachemgr.Manager{e.node, e.peer} {
		if m != nil {
			m.Close() //nolint:errcheck // teardown
		}
	}
	for _, c := range []*rblock.Client{e.client, e.peerClient} {
		if c != nil {
			c.Close() //nolint:errcheck // teardown
		}
	}
	if e.nbd != nil {
		e.nbd.Close() //nolint:errcheck // teardown
	}
	if e.store != nil {
		e.store.Close() //nolint:errcheck // teardown
	}
	os.RemoveAll(e.dir) //nolint:errcheck // best-effort cleanup
}

// createBase writes a base image holding c's allocated extents.
func createBase(st backend.Store, name string, c *content) (err error) {
	f, err := st.Create(name)
	if err != nil {
		return err
	}
	img, err := qcow.Create(f, qcow.CreateOpts{Size: c.size, ClusterBits: baseClusterBits})
	if err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	defer func() {
		if cerr := img.Close(); err == nil {
			err = cerr
		}
	}()
	buf := make([]byte, 1<<20)
	for _, e := range c.alloc {
		for off := e.off; off < e.end; off += int64(len(buf)) {
			p := buf[:min(int64(len(buf)), e.end-off)]
			c.fill(p, off)
			if err := backend.WriteFull(img, p, off); err != nil {
				return err
			}
		}
	}
	return nil
}

// linkTree recreates a directory tree of regular files as hard links. The
// manager and its chunk store never write an existing file in place (new
// files are renamed into place, published caches are 0444), so the copy
// cannot change the template.
func linkTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		switch {
		case fi.IsDir():
			return os.MkdirAll(to, fi.Mode().Perm()|0o700)
		case fi.Mode().IsRegular():
			return os.Link(path, to)
		default:
			return errors.New("linkTree: not a regular file: " + path)
		}
	})
}

// moveTree moves the entries of src into dst, merging the directories both
// hold. A file dst already holds is kept: the trees merged are managers'
// directories, in which the only names two images share are
// content-addressed chunk blobs.
func moveTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range ents {
		from, to := filepath.Join(src, de.Name()), filepath.Join(dst, de.Name())
		fi, err := os.Lstat(to)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			err = os.Rename(from, to)
		case err == nil && fi.IsDir() && de.IsDir():
			err = moveTree(from, to)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// timedSetUp sets up deployment i under root and reports how long it took.
func timedSetUp(i int, wl workload, in *inputs, root string, tr *tracer) (*env, float64, error) {
	start := time.Now()
	e, err := setUp(wl, in, filepath.Join(root, fmt.Sprintf("setup-%d", i)), tr)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return e, time.Since(start).Seconds(), nil
}
