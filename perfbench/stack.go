package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xbc/internal/cluster"
	"xbc/internal/service"
	"xbc/internal/service/jobspec"
	"xbc/internal/store"
)

// node is one xbcd serving stack inside this process: the service, the
// optional cluster gate and store, and a loopback HTTP listener.
type node struct {
	url   string // where clients reach the listener
	name  string // the node's name on the cluster ring
	ln    net.Listener
	srv   *http.Server
	done  chan struct{} // closed when Serve returns
	svc   *service.Server
	cl    *cluster.Cluster // nil on a single node
	peers *http.Client     // the cluster's forwarding client
	st    *store.Store     // nil when memory-only
}

// stack is every node of one set-up, plus the temp directory that holds
// their stores. close tears all of it down; it is safe on a partial stack.
type stack struct {
	nodes []*node
	dir   string        // "" when memory-only
	ring  *cluster.Ring // nil on a single node
}

type stackConfig struct {
	nodes     int
	store     bool
	exec      func(jobspec.Spec) (jobspec.Result, error) // nil: jobspec.Execute
	tmpRoot   string                                     // parent of the store directory
	cacheJobs int                                        // result cache size; 0: the service default
}

// startStack brings up cfg.nodes xbcd nodes on loopback listeners. With
// more than one node every node runs the cluster gate over the others.
// Only node 0 owns a snapshot manager; it is process-wide, so every node's
// full runs share it, as the in-process cluster tests do.
func startStack(cfg stackConfig) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for i := 0; i < cfg.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, &node{ln: ln, url: "http://" + ln.Addr().String(), name: nodeName(i)})
	}
	if cfg.store {
		if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
			return nil, err
		}
		if s.dir, err = os.MkdirTemp(cfg.tmpRoot, fmt.Sprintf("run-%d-", os.Getpid())); err != nil {
			return nil, err
		}
	}
	for i, n := range s.nodes {
		opts := service.Options{Exec: cfg.exec, Clock: time.Now, CacheJobs: cfg.cacheJobs}
		if i > 0 {
			opts.SnapshotEntries = -1
		}
		if cfg.store {
			n.st, err = store.Open(store.Options{Dir: filepath.Join(s.dir, "node"+strconv.Itoa(i)), Fsync: store.FsyncInterval})
			if err != nil {
				return nil, err
			}
			opts.Store = n.st
		}
		n.svc = service.New(opts)
		h := n.svc.Handler()
		if cfg.nodes > 1 {
			var peers []string
			for _, p := range s.nodes {
				if p != n {
					peers = append(peers, p.name)
				}
			}
			n.peers = s.peerClient()
			n.cl = cluster.New(cluster.Options{Self: n.name, Peers: peers, Client: n.peers})
			h = n.cl.Handler(h)
		}
		n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		n.done = make(chan struct{})
		go func(n *node) {
			defer close(n.done)
			// Serve returns ErrServerClosed once close shuts it down.
			_ = n.srv.Serve(n.ln)
		}(n)
	}
	if cfg.nodes > 1 {
		s.ring = s.nodes[0].cl.Ring()
	}
	return s, nil
}

// nodeName is node i's fixed name on the ring. Naming nodes by their
// loopback ports would give every run a different ring, and so a
// different split of the workload's keys between local and forwarded.
func nodeName(i int) string { return "http://xbcd-" + strconv.Itoa(i) + ".perfbench" }

// ringOf is the placement ring of an n-node stack.
func ringOf(n int) *cluster.Ring {
	names := make([]string, n)
	for i := range names {
		names[i] = nodeName(i)
	}
	return cluster.NewRing(names, 0)
}

// peerClient forwards between nodes: it dials a node's ring name to that
// node's loopback listener.
func (s *stack) peerClient() *http.Client {
	addrs := map[string]string{}
	for _, n := range s.nodes {
		addrs[strings.TrimPrefix(n.name, "http://")+":80"] = n.ln.Addr().String()
	}
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := addrs[addr]; ok {
				addr = a
			}
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 4,
	}}
}

// close stops the listeners, drains every service (in-flight jobs finish,
// write-behind flushes), closes the stores and removes their directory.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, n := range s.nodes {
		if n.srv == nil {
			n.ln.Close()
			continue
		}
		if n.srv.Shutdown(ctx) != nil {
			n.srv.Close()
		}
		<-n.done
	}
	for _, n := range s.nodes {
		if n.cl != nil {
			n.cl.Stop()
			n.peers.CloseIdleConnections()
		}
		if n.svc != nil {
			n.svc.Drain()
		}
		if n.st != nil {
			n.st.Close()
		}
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
	s.nodes = nil
}

// sweepStaleDirs removes store directories left under root by runs that
// were killed outright (SIGKILL cannot be caught), recognised by the dead
// process id in their name.
func sweepStaleDirs(root string) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range entries {
		parts := strings.SplitN(e.Name(), "-", 3)
		if len(parts) != 3 || parts[0] != "run" {
			continue
		}
		pid, err := strconv.Atoi(parts[1])
		if err != nil || pid == os.Getpid() {
			continue
		}
		if err := syscall.Kill(pid, 0); err == nil || !errors.Is(err, syscall.ESRCH) {
			continue // still running, or not ours to judge
		}
		os.RemoveAll(filepath.Join(root, e.Name()))
	}
}
