package main

import (
	"fmt"
	"runtime"
	"time"

	"nba/internal/apps/ids"
	"nba/internal/apps/ipsec"
	"nba/internal/apps/ipv4"
	"nba/internal/apps/ipv6"
	"nba/internal/batch"
	"nba/internal/bench"
	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/gpu"
	"nba/internal/graph"
	"nba/internal/lb"
	"nba/internal/mempool"
	"nba/internal/netio"
	"nba/internal/offload"
	"nba/internal/packet"
	"nba/internal/rng"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// Layer drivers time calls into each layer's public functions from
// outside, like the packages' own Benchmark* functions but without the
// testing harness. Host-clock numbers are best-of-three (noise protocol:
// the minimum is the steady statistic on a box whose clock speed flips).

// microTarget is how long one timed batch of calls runs.
var microTarget = 5 * time.Millisecond

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

// bestNs grows n until fn(n) runs for microTarget, then returns the best of
// three timings in nanoseconds per operation.
func bestNs(fn func(n int)) float64 {
	for n := 1; ; n *= 4 {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d < microTarget && n < 1<<26 {
			continue
		}
		for i := 0; i < 2; i++ {
			t0 = time.Now()
			fn(n)
			if e := time.Since(t0); e < d {
				d = e
			}
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
}

// allocsPer returns heap allocations per operation over fn(n).
func allocsPer(n int, fn func(n int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// stubEnv is a graph.Env that recycles everything and charges nothing, so
// a driver measures the executor and the elements alone.
type stubEnv struct{ batches *batch.Pool }

func (e *stubEnv) Transmit(*packet.Packet)         {}
func (e *stubEnv) ReleasePacket(*packet.Packet)    {}
func (e *stubEnv) GetBatch() (*batch.Batch, error) { return e.batches.Get() }
func (e *stubEnv) PutBatch(b *batch.Batch)         { b.Reset(); e.batches.Put(b) }
func (e *stubEnv) Charge(simtime.Cycles)           {}
func (e *stubEnv) Offload(_ *graph.Node, _ []*graph.Node, _ int, b *batch.Batch) {
	e.PutBatch(b)
}

// constGen is the constant stub generator for the netio driver: it sets the
// frame length and writes nothing, so Poll's own cost is what is timed.
type constGen struct{}

func (constGen) Fill(p *packet.Packet, _ int, _ uint64) { p.SetLength(64) }
func (constGen) MeanFrameLen() float64                  { return 64 }

func buildGraph(src string) (*graph.Graph, *element.ProcContext, error) {
	cfg, err := conflang.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	topo := sysinfo.DefaultTopology()
	nl := element.NewNodeLocal()
	r := rng.New(1)
	cctx := &element.ConfigContext{NodeLocal: nl, NumPorts: len(topo.Ports), NumDevices: 1, Rand: r}
	g, err := graph.Build(cfg, cctx, sysinfo.Default(), graph.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	return g, &element.ProcContext{NodeLocal: nl, Rand: r, CostScale: 1}, nil
}

// graphExec times Inject over 64-packet batches of frames, restoring the
// frames before every pass (elements rewrite them: TTL, ESP growth) with
// the restore outside the timed section. It returns ns per packet and
// allocations per batch.
func graphExec(g *graph.Graph, pctx *element.ProcContext, frames [][]byte) (nsPerPkt, allocsPerBatch float64, err error) {
	env := &stubEnv{batches: batch.NewPool("bench", 64)}
	pkts := make([]*packet.Packet, len(frames))
	for i := range pkts {
		pkts[i] = &packet.Packet{}
	}
	var injected time.Duration
	pass := func(n int) {
		injected = 0
		for i := 0; i < n; i++ {
			b, getErr := env.batches.Get()
			if getErr != nil {
				err = getErr // the pipeline kept a batch: the stub leaks
				return
			}
			for j, p := range pkts {
				p.Reset()
				p.CopyFrom(frames[j])
				b.Add(p)
			}
			t0 := time.Now()
			g.Inject(env, pctx, b)
			injected += time.Since(t0)
		}
	}
	best := 0.0
	bestNs(func(n int) {
		pass(n)
		if ns := float64(injected.Nanoseconds()) / float64(n*len(pkts)); best == 0 || ns < best {
			best = ns
		}
	})
	return best, allocsPer(64, pass), err
}

// workloadFrames generates one batch of the workload's own traffic.
func workloadFrames(w workload, seed uint64) [][]byte {
	g := bench.GeneratorFor(w.app, w.size, seed+1)
	frames := make([][]byte, 64)
	p := &packet.Packet{}
	for i := range frames {
		p.Reset()
		g.Fill(p, 0, uint64(i))
		frames[i] = append([]byte(nil), p.Data()...)
	}
	return frames
}

func randomBytes(n int, seed uint64) []byte {
	r := rng.New(seed)
	data := make([]byte, n)
	for i := range data {
		data[i] = 'a' + byte(r.Uint64()%26)
	}
	return data
}

// measureLayers runs every layer driver and returns its metrics.
func measureLayers(w workload, seed uint64, sp *spanLog) (values, error) {
	v := values{}
	var firstErr error
	layer := func(name string, fn func() error) {
		id := sp.begin("layer."+name, 0)
		if err := fn(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("layer %s: %w", name, err)
		}
		sp.end(id)
	}
	var mac1, mac2 = [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2}

	layer("conflang", func() error {
		texts, err := w.pipelines()
		if err != nil {
			return err
		}
		v["conflang.parse_us"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				c, _ := conflang.Parse(texts[i%len(texts)])
				sink += uint64(len(c.Edges))
			}
		}) / 1e3
		return nil
	})

	layer("simtime", func() error {
		eng := simtime.NewEngine()
		noop := func() {}
		v["simtime.ns_per_event"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				for j := 0; j < 1024; j++ {
					eng.After(simtime.Time(j%1000+1), noop)
				}
				eng.Run()
			}
		}) / 1024
		return nil
	})

	layer("gen", func() error {
		g := bench.GeneratorFor(w.app, w.size, seed+1)
		pool := netio.NewPacketPool("bench", 64)
		fill := func(n int) {
			for i := 0; i < n; i++ {
				p, err := pool.Get()
				if err != nil {
					return
				}
				g.Fill(p, i&7, uint64(i))
				sink += uint64(p.Length())
				pool.Put(p)
			}
		}
		v["gen.fill_ns_per_pkt"] = bestNs(fill)
		v["gen.fill_allocs_per_pkt"] = allocsPer(4096, fill)
		v["rng.new_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				sink += rng.New(uint64(i)).Uint64()
			}
		})
		return nil
	})

	layer("netio", func() error {
		const rate = 1e7 // packets per virtual second: a burst is due every 6.4 us
		q := netio.NewRxQueue(0, 0, constGen{}, rate, 4096)
		pool := netio.NewPacketPool("bench", 256)
		out := make([]*packet.Packet, 0, 64)
		now := simtime.Time(0)
		v["netio.poll_ns_per_pkt"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				now += 64 * simtime.Second / rate
				out = q.Poll(now, 64, pool, out[:0])
				for _, p := range out {
					pool.Put(p)
				}
			}
		}) / 64
		if d, dropped, _ := q.Stats(); d == 0 || dropped != 0 {
			return fmt.Errorf("poll driver delivered %d, dropped %d", d, dropped)
		}
		return nil
	})

	layer("mempool", func() error {
		pool := mempool.New[packet.Packet]("bench", 64, nil)
		v["mempool.getput_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				if p, err := pool.Get(); err == nil {
					pool.Put(p)
				}
			}
		})
		ring := mempool.NewRing[int](1024)
		v["mempool.ring_pushpop_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				ring.Push(i)
				x, _ := ring.Pop()
				sink += uint64(x)
			}
		})
		return nil
	})

	layer("packet", func() error {
		p := &packet.Packet{}
		v["packet.build_udp4_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(packet.BuildUDP4(p.Buf(), mac1, mac2, uint32(i), 0xC0A80101, 1000, 53, 64))
			}
		})
		p.SetLength(64)
		h := p.Data()[packet.EthHdrLen:]
		if err := packet.CheckIPv4(h); err != nil {
			return err
		}
		v["packet.check_ipv4_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				if packet.CheckIPv4(h) != nil {
					sink++
				}
			}
		})
		return nil
	})

	layer("batch", func() error {
		var b batch.Batch
		p := &packet.Packet{}
		v["batch.add_reset_ns_per_pkt"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				for j := 0; j < 64; j++ {
					b.Add(p)
				}
				b.Reset()
			}
		}) / 64
		return nil
	})

	layer("graph", func() error {
		frames := workloadFrames(w, seed)
		g, pctx, err := buildGraph(`FromInput() -> ToOutput();`)
		if err != nil {
			return err
		}
		if v["graph.noop_ns_per_pkt"], _, err = graphExec(g, pctx, frames); err != nil {
			return err
		}
		src, err := bench.AppConfig(w.app, "cpu")
		if err != nil {
			return err
		}
		if g, pctx, err = buildGraph(src); err != nil {
			return err
		}
		v["graph.exec_ns_per_pkt"], v["graph.exec_allocs_per_batch"], err = graphExec(g, pctx, frames)
		return err
	})

	layer("apps", func() error {
		r := rng.New(2)
		t4, err := ipv4.NewTable(ipv4.RandomRoutes(65536, 256, 42))
		if err != nil {
			return err
		}
		a4 := make([]uint32, 1024)
		for i := range a4 {
			a4[i] = r.Uint32()
		}
		v["apps.ipv4.lookup_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(t4.Lookup(a4[i&1023]))
			}
		})
		t6, err := ipv6.NewTable(ipv6.RandomRoutes(65536, 256, 42))
		if err != nil {
			return err
		}
		a6 := make([]packet.IPv6Addr, 1024)
		for i := range a6 {
			a6[i] = packet.IPv6Addr{Hi: r.Uint64(), Lo: r.Uint64()}
		}
		v["apps.ipv6.lookup_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(t6.Lookup(a6[i&1023]))
			}
		})
		db, err := ipsec.NewSADB(1024, 7)
		if err != nil {
			return err
		}
		for _, size := range []int{64, 1500} {
			p := &packet.Packet{}
			p.SetLength(packet.BuildUDP4(p.Buf(), mac1, mac2, 1, 2, 3, 4, size))
			if _, err := ipsec.Encap(p, db); err != nil {
				return err
			}
			encLen := p.Length()
			var cryptErr error
			v[fmt.Sprintf("apps.ipsec.ns_per_pkt_%d", size)] = bestNs(func(n int) {
				for i := 0; i < n; i++ {
					p.SetLength(encLen)
					if err := ipsec.Encrypt(p, db); err != nil {
						cryptErr = err
					}
					if err := ipsec.Authenticate(p, db); err != nil {
						cryptErr = err
					}
				}
			})
			if cryptErr != nil {
				return cryptErr
			}
		}
		payload := randomBytes(1500, 1)
		ac, err := ids.BuildAC(ids.DefaultSignatures)
		if err != nil {
			return err
		}
		v["apps.ids.ac_ns_per_byte"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				ac.Match(payload)
			}
		}) / float64(len(payload))
		dfa, err := ids.CompileRules(ids.DefaultRegexRules)
		if err != nil {
			return err
		}
		v["apps.ids.dfa_ns_per_byte"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				dfa.Match(payload)
			}
		}) / float64(len(payload))
		return nil
	})

	layer("offload", func() error {
		src, err := bench.AppConfig("ipsec", "gpu")
		if err != nil {
			return err
		}
		g, _, err := buildGraph(src)
		if err != nil {
			return err
		}
		var head *graph.Node
		for _, n := range g.Nodes {
			if n.IsOffloadable() {
				head = n
				break
			}
		}
		if head == nil {
			return fmt.Errorf("ipsec pipeline has no offloadable node")
		}
		chain, resume := g.OffloadChainAt(head)
		b := &batch.Batch{}
		for i := 0; i < 64; i++ {
			p := &packet.Packet{}
			p.SetLength(packet.BuildUDP4(p.Buf(), mac1, mac2, uint32(i), 2, 3, 4, 64))
			b.Add(p)
		}
		b.Anno[batch.AnnoDevice] = 1
		agg := offload.NewAggregator(sysinfo.Default())
		var addErr error
		v["offload.add_ns_per_batch"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				full, err := agg.Add(0, head, chain, resume, b)
				if err != nil {
					addErr = err
				}
				if full != nil {
					sink += uint64(full.NPkts)
				}
			}
			agg.TakeAll()
		})
		return addErr
	})

	layer("gpu", func() error {
		eng := simtime.NewEngine()
		topo := sysinfo.DefaultTopology()
		dev, err := gpu.New("gpu0", sysinfo.DeviceGPU, eng, sysinfo.Default(), topo.CoreFreqHz, 1)
		if err != nil {
			return err
		}
		done := 0
		task := gpu.Task{NPkts: 2048, H2DBytes: 163840, D2HBytes: 163840,
			KernelTime: 148 * simtime.Microsecond, Kernels: 2,
			Execute: func() {}, Complete: func(simtime.Time, *gpu.Task) { done++ }}
		submitted := 0
		v["gpu.submit_ns_per_task"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				t := task
				eng.After(0, func() { dev.Submit(&t) })
				eng.Run()
			}
			submitted += n
		})
		if done != submitted {
			return fmt.Errorf("%d of %d device tasks completed", done, submitted)
		}
		return nil
	})

	layer("lb", func() error {
		st := &lb.State{}
		c := lb.NewController(st)
		v["lb.update_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				c.Observe(18 - 12*(st.W-0.8)*(st.W-0.8))
				c.Update()
			}
			c.Trace = c.Trace[:0]
		})
		return nil
	})

	layer("stats", func() error {
		var h stats.Hist
		v["stats.hist_record_ns"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				h.Record(simtime.Time(i&0xffff) * simtime.Microsecond)
			}
		})
		sink += h.Count()
		return nil
	})

	layer("trace", func() error {
		tr := trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		v["trace.emit_ns_per_event"] = bestNs(func(n int) {
			for i := 0; i < n; i++ {
				tr.Emit(simtime.Time(i), trace.KindBatch, 3, "elem", int64(i), 64, 1, 0)
			}
		})
		sink += tr.Total()
		return nil
	})
	return v, firstErr
}
