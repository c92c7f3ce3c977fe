package main

import (
	"net"
	"net/rpc"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"afex"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/faultspace"
	"afex/internal/rpcnode"
	"afex/internal/store"
)

// coordServer is what a leg needs from its coordinator: an address for
// the managers and a way to stop serving.
type coordServer interface {
	Addr() string
	Close() error
}

// rpcResume: a persistent coordinator served on loopback with
// in-process managers, the budget split over two legs on one binary
// state directory; leg 2 reopens it with Resume.
func rpcResume(env *benchEnv, tr *tracer) *huntResult {
	res := &huntResult{Attempted: rpcBudget}
	dir, err := freshDir(env, "rpc-resume")
	if err != nil {
		res.gate(false, "state dir: %v", err)
		return res.finish(0)
	}
	defer os.RemoveAll(dir)
	var wire atomic.Int64
	for leg, budget := range []int{rpcBudget / 2, rpcBudget} {
		start := time.Now()
		tg, space, err := profileModel(tr)
		if err != nil {
			res.gate(false, "profile: %v", err)
			return res.finish(0)
		}
		o := afex.CoordinatorOptions{
			TargetName:    modelTarget,
			Space:         space,
			Explore:       afex.ExploreOptions{Seed: env.seed},
			Budget:        budget,
			StateDir:      dir,
			JournalFormat: afex.JournalBinary,
			Resume:        leg == 1,
		}
		var coord *afex.Coordinator
		var srv coordServer
		var closeStore func() error
		if tr == nil {
			coord, closeStore, err = afex.NewCoordinatorWithOptions(o)
			if err == nil {
				var s *afex.CoordinatorServer
				if s, err = afex.ServeCoordinator("127.0.0.1:0", coord); err == nil {
					srv = s
				} else {
					closeStore()
				}
			}
		} else {
			coord, closeStore, err = tracedCoordinator(o, tr)
			if err == nil {
				var s *tracedServer
				if s, err = serveTraced(coord, tr, &wire); err == nil {
					srv = s
				} else {
					closeStore()
				}
			}
		}
		if err != nil {
			res.gate(false, "leg %d coordinator: %v", leg+1, err)
			return res.finish(0)
		}
		managers := make([]*afex.Manager, 0, rpcManagers)
		for i := 0; i < rpcManagers; i++ {
			m, err := afex.DialManager(srv.Addr(), string(rune('A'+i)), tg)
			if err != nil {
				res.gate(false, "leg %d dial: %v", leg+1, err)
				break
			}
			m.Concurrency = 1
			managers = append(managers, m)
		}
		res.SetupS += time.Since(start).Seconds()

		before := res.Executed
		w := openWindow()
		var wall0 int64
		if tr != nil {
			wall0 = tr.now()
		}
		counts := make([]int, len(managers))
		errs := make([]error, len(managers))
		var wg sync.WaitGroup
		for i, m := range managers {
			wg.Add(1)
			go func(i int, m *afex.Manager) {
				defer wg.Done()
				counts[i], errs[i] = m.RunUntilDone()
			}(i, m)
		}
		wg.Wait()
		r := coord.Result()
		stats := coord.Snapshot()
		for _, m := range managers {
			_ = m.Close() // transport teardown; results are already folded
		}
		_ = srv.Close()
		closeErr := closeStore()
		if tr != nil {
			tr.add(span{name: spLeg, start: wall0, end: tr.now(), track: -1})
		}
		w.close(res)

		res.Executed = r.Executed
		res.UniqueFailures, res.UniqueCrashes = r.UniqueFailures, r.UniqueCrashes
		legRan, sum, perManager := r.Executed-before, 0, 0
		for i := range managers {
			res.gate(errs[i] == nil, "leg %d manager %d: %v", leg+1, i, errs[i])
			sum += counts[i]
		}
		for _, n := range stats.PerManager {
			perManager += n
		}
		res.gate(closeErr == nil, "leg %d store close: %v", leg+1, closeErr)
		res.gate(sum == legRan, "leg %d: managers report %d, coordinator folded %d", leg+1, sum, legRan)
		res.gate(perManager == legRan, "leg %d: per-manager counts sum to %d, folded %d", leg+1, perManager, legRan)
		res.gate(r.Executed == budget, "leg %d: executed %d, leg budget %d", leg+1, r.Executed, budget)
		if tr != nil && leg == 1 {
			tr.addVal("store.journal_bytes", float64(dirBytes(dir, journalFiles...)))
			tr.addVal("store.snapshot_bytes", float64(dirBytes(dir, "snapshot.json")))
			tr.addVal("wire.bytes", float64(wire.Load()))
			res.Layers = tr.reduce(r.Executed, nil)
		}
	}
	stats, err := afex.ReadStateStats(dir)
	res.gate(err == nil, "state stats: %v", err)
	entries, jerr := afex.ReplayJournal(dir)
	res.gate(jerr == nil, "read journal: %v", jerr)
	if err == nil && jerr == nil {
		// ReplayJournal keeps the first of duplicate keys; fewer
		// distinct entries than journaled ones means a key was
		// journaled twice.
		res.gate(stats.Entries == res.Executed && len(entries) == stats.Entries,
			"journal holds %d entries, %d distinct keys, executed %d", stats.Entries, len(entries), res.Executed)
	}
	return res.finish(0)
}

// tracedCoordinator is afex.NewCoordinatorWithOptions with timing
// wrappers on the store (Config.Store) and the explorer.
func tracedCoordinator(o afex.CoordinatorOptions, tr *tracer) (*afex.Coordinator, func() error, error) {
	ecfg := core.Config{Space: o.Space, Iterations: o.Budget, Resume: o.Resume}
	var st *store.Store
	var err error
	tr.timePhase("store.open_s", func() {
		st, err = store.OpenOptions(o.StateDir, store.Options{Format: o.JournalFormat, TailResume: o.Resume})
		if err == nil {
			if err = st.AttachNamed(&ecfg, o.TargetName); err != nil {
				st.Close()
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	ts := &timedStore{inner: st, t: tr}
	ecfg.Store = ts
	ex, err := explore.New(afex.FitnessGuided, o.Space, o.Explore)
	if err == nil {
		var coord *rpcnode.Coordinator
		if coord, err = rpcnode.NewCoordinatorConfig(ecfg, &timedExplorer{inner: ex, t: tr}, nil); err == nil {
			coord.SetTargetName(o.TargetName)
			return coord, ts.close, nil
		}
	}
	st.Close()
	return nil, nil, err
}

// timedCoordinator serves the coordinator's exported batched-protocol
// methods under the RPC name "Coordinator", timing each call and
// tracking when each manager holds no leased work.
type timedCoordinator struct {
	c *rpcnode.Coordinator
	t *tracer

	mu       sync.Mutex
	seqKey   map[int]string
	held     map[string]int
	idleFrom map[string]int64
}

func (s *timedCoordinator) Hello(h rpcnode.Hello, reply *rpcnode.HelloReply) error {
	t0 := s.t.now()
	err := s.c.Hello(h, reply)
	t1 := s.t.now()
	s.t.add(span{name: spRPCOther, start: t0, end: t1, track: -1})
	s.mu.Lock()
	s.idleFrom[h.Manager] = t1
	s.mu.Unlock()
	return err
}

func (s *timedCoordinator) NextBatch(req rpcnode.BatchRequest, b *rpcnode.TaskBatch) error {
	t0 := s.t.now()
	err := s.c.NextBatch(req, b)
	t1 := s.t.now()
	keys := make([]string, len(b.Tasks))
	for i, tw := range b.Tasks {
		keys[i] = faultspace.Point{Sub: tw.Sub, Fault: tw.Fault}.Key()
	}
	sp := span{name: spNextBatch, start: t0, end: t1, track: -1, n: int32(len(keys))}
	if len(keys) > 0 {
		sp.key = keys[0]
	}
	s.t.addBatch(sp, keys)
	if len(keys) > 0 {
		s.mu.Lock()
		for i, tw := range b.Tasks {
			s.seqKey[tw.Seq] = keys[i]
		}
		if s.held[req.Manager] == 0 {
			if from, ok := s.idleFrom[req.Manager]; ok {
				s.t.addVal("wire.manager_idle_s", float64(t1-from)/1e9)
			}
		}
		s.held[req.Manager] += len(keys)
		s.mu.Unlock()
	}
	return err
}

func (s *timedCoordinator) ReportBatch(rb rpcnode.ResultBatch, ack *rpcnode.BatchAck) error {
	keys := make([]string, 0, len(rb.Results))
	s.mu.Lock()
	for _, rw := range rb.Results {
		if k, ok := s.seqKey[rw.Seq]; ok {
			keys = append(keys, k)
			delete(s.seqKey, rw.Seq)
		}
	}
	s.mu.Unlock()
	t0 := s.t.now()
	err := s.c.ReportBatch(rb, ack)
	t1 := s.t.now()
	sp := span{name: spReportBatch, start: t0, end: t1, track: -1, n: int32(len(rb.Results))}
	if len(keys) > 0 {
		sp.key = keys[0]
	}
	s.t.addBatch(sp, keys)
	s.mu.Lock()
	if s.held[rb.Manager] -= len(rb.Results); s.held[rb.Manager] <= 0 {
		s.held[rb.Manager] = 0
		s.idleFrom[rb.Manager] = t1
	}
	s.mu.Unlock()
	return err
}

func (s *timedCoordinator) Heartbeat(managerID string, ack *bool) error {
	t0 := s.t.now()
	err := s.c.Heartbeat(managerID, ack)
	s.t.add(span{name: spRPCOther, start: t0, end: s.t.now(), track: -1})
	return err
}

// tracedServer serves a timedCoordinator on a loopback listener that
// counts the bytes crossing every connection.
type tracedServer struct {
	lis   net.Listener
	bytes *atomic.Int64
	wg    sync.WaitGroup
}

func serveTraced(c *rpcnode.Coordinator, tr *tracer, bytes *atomic.Int64) (*tracedServer, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := rpc.NewServer()
	tc := &timedCoordinator{c: c, t: tr, seqKey: make(map[int]string), held: make(map[string]int), idleFrom: make(map[string]int64)}
	if err := srv.RegisterName("Coordinator", tc); err != nil {
		lis.Close()
		return nil, err
	}
	s := &tracedServer{lis: lis, bytes: bytes}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				srv.ServeConn(&countingConn{Conn: conn, n: bytes})
			}()
		}
	}()
	return s, nil
}

func (s *tracedServer) Addr() string { return s.lis.Addr().String() }

// Close stops accepting and waits for every connection to end; the
// managers close theirs first.
func (s *tracedServer) Close() error {
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
