package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"aviv"
	"aviv/internal/asm"
	"aviv/internal/cover"
	"aviv/internal/dataflow"
	"aviv/internal/diskcache"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/opt"
	"aviv/internal/peephole"
	"aviv/internal/regalloc"
	"aviv/internal/server"
	"aviv/internal/sndag"
)

// The replay serves the benchmark's requests a second time, outside the
// server, by calling each layer's public entry point itself with a span
// around the call. No instrumentation lives inside the program, so the
// steps delta.Engine.Compile takes for a request are re-driven here, in
// the engine's order, through the same functions the engine calls:
// liveness, context keys, the artifact memory tier, diskcache Get/Put,
// the disk rebuild (sndag.Build, cover.DecodeResult and the tail
// passes), the full per-block pipeline aviv.CompileBlock runs, and
// aviv.LayoutProgram. Every replayed program is byte-compared with the
// served assembly and its block outcome counts with the served
// response, so a span can never time a different program.

// contextKey mirrors the delta engine's per-block context fingerprint
// (cover-level content key, sorted live-in set, peephole flag). A
// recipe that drifts from the engine's shows up as outcome counts that
// disagree with the served response, which fails the run.
func contextKey(base [sha256.Size]byte, liveIn []string, peep bool) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("aviv-delta-ctx-v1"))
	h.Write(base[:])
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(liveIn)))
	h.Write(n[:])
	for _, v := range liveIn {
		binary.BigEndian.PutUint64(n[:], uint64(len(v)))
		h.Write(n[:])
		h.Write([]byte(v))
	}
	if peep {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// artifact is a finished pre-layout block, as the engine's memory tier
// holds it.
type artifact struct {
	code   *asm.Block
	spills int
	saved  int // instructions the peephole pass removed
}

// outcomes are one request's block counts, named as in delta.Result.
type outcomes struct {
	Stitched, DiskStitched, Recompiled int
	CoverCacheHits, CoverDiskHits      int
}

// replayCounts are the count-valued per-layer measurements of the
// traced requests.
type replayCounts struct {
	irNodes       int
	freshSearches int // recompiled blocks whose covering was searched
	assignments   int
	peepSaved     int
	spills        int
	bytesPut      int64
}

// replayer owns its own cache tiers, in a directory of its own, and
// evolves them through the same request sequence the server saw, so
// every block meets the same tier outcome it met when served.
type replayer struct {
	m     *isdl.Machine
	mfp   [sha256.Size]byte
	dir   string
	tr    *tracer
	disk  *diskcache.Cache
	cache *cover.Cache
	arts  map[[sha256.Size]byte]*artifact
	n     replayCounts
}

func newReplayer(m *isdl.Machine, dir string) (*replayer, error) {
	r := &replayer{m: m, mfp: m.Fingerprint(), dir: dir}
	return r, r.restart()
}

// restart drops every in-memory tier and reopens the disk tier, as a
// server restart does.
func (r *replayer) restart() error {
	disk, err := diskcache.Open(r.dir, diskMaxBytes)
	if err != nil {
		return err
	}
	r.disk = disk
	r.cache = cover.NewBoundedCache(memEntries)
	r.arts = make(map[[sha256.Size]byte]*artifact)
	return nil
}

// Get and Put make the replayer the cover.EntryStore both the block
// loop and cover.CoverBlock use, so every disk access gets a span under
// whichever layer made it. Delete keeps deletion-as-miss available.
func (r *replayer) Get(key [sha256.Size]byte) ([]byte, bool) {
	sp := r.tr.start("diskcache.Get")
	data, ok := r.disk.Get(key)
	r.tr.end(sp)
	return data, ok
}

func (r *replayer) Put(key [sha256.Size]byte, data []byte) {
	sp := r.tr.start("diskcache.Put")
	r.disk.Put(key, data)
	r.tr.end(sp)
	r.n.bytesPut += int64(len(data))
}

func (r *replayer) Delete(key [sha256.Size]byte) { r.disk.Delete(key) }

// serve replays one /compile request body and returns the assembly it
// produced and the block outcomes.
func (r *replayer) serve(body []byte) (string, outcomes, error) {
	root := r.tr.start("request")
	defer r.tr.end(root)

	sp := r.tr.start("json")
	var req server.CompileRequest
	err := json.Unmarshal(body, &req)
	r.tr.end(sp)
	if err != nil {
		return "", outcomes{}, err
	}
	if req.Unroll > 1 || req.Preset != "" || req.Verify {
		return "", outcomes{}, fmt.Errorf("replay covers only default-preset, unroll-1, unverified requests")
	}

	sp = r.tr.start("lang.Parse")
	prog, err := lang.Parse(req.Source)
	r.tr.end(sp)
	if err != nil {
		return "", outcomes{}, err
	}
	sp = r.tr.start("lang.Lower")
	f, err := lang.Lower(prog, "main")
	r.tr.end(sp)
	if err != nil {
		return "", outcomes{}, err
	}
	sp = r.tr.start("opt.Optimize")
	f = opt.Optimize(f)
	r.tr.end(sp)
	for _, b := range f.Blocks {
		r.n.irNodes += len(b.Nodes)
	}

	p, out, err := r.compile(f)
	if err != nil {
		return "", out, err
	}

	sp = r.tr.start("Program.String")
	text := p.String()
	r.tr.end(sp)

	// The server's response encoding, byte for byte.
	sp = r.tr.start("json")
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(server.CompileResponse{
		Assembly:         text,
		CodeSize:         p.CodeSize(),
		Blocks:           len(f.Blocks),
		CacheHits:        out.CoverCacheHits,
		DiskHits:         out.CoverDiskHits,
		StitchedBlocks:   out.Stitched + out.DiskStitched,
		RecompiledBlocks: out.Recompiled,
	})
	r.tr.end(sp)
	return text, out, err
}

// compile re-drives delta.Engine.Compile (Parallelism 1, Verify off, no
// oracle) for the server's default request options.
func (r *replayer) compile(f *ir.Func) (*asm.Program, outcomes, error) {
	var out outcomes
	sp := r.tr.start("delta.Engine.Compile")
	defer r.tr.end(sp)
	if err := f.Verify(); err != nil {
		return nil, out, err
	}
	lsp := r.tr.start("dataflow.Liveness")
	live := dataflow.Liveness(f)
	liveOuts := live.OutSets()
	r.tr.end(lsp)

	opts := aviv.PlacementOptions(f, r.m, aviv.DefaultOptions())
	p := &asm.Program{Machine: r.m}
	for i, b := range f.Blocks {
		bo := opts.Cover
		bo.LiveOut = liveOuts[i]
		var liveIn []string
		for _, v := range live.Vars {
			if live.LiveInOf(i, v) {
				liveIn = append(liveIn, v)
			}
		}
		key := contextKey(cover.BlockKey(b, r.mfp, bo), liveIn, opts.Peephole)

		art, err := r.block(key, b, bo, opts.Peephole, &out)
		if err != nil {
			return nil, out, err
		}
		r.n.spills += art.spills
		r.n.peepSaved += art.saved
		clone := *art.code
		p.Blocks = append(p.Blocks, &clone)
	}
	lay := r.tr.start("aviv.LayoutProgram")
	aviv.LayoutProgram(p)
	r.tr.end(lay)
	return p, out, nil
}

// block finds or builds one block's artifact as the engine does: the
// memory tier, then the disk tier, then the full per-block pipeline,
// whose covering is written back to the disk tier.
func (r *replayer) block(key [sha256.Size]byte, b *ir.Block, o cover.Options, peep bool, out *outcomes) (*artifact, error) {
	if art, ok := r.arts[key]; ok {
		out.Stitched++
		return art, nil
	}
	if data, hit := r.Get(key); hit {
		if art, err := r.rebuild(data, b, o, peep); err == nil {
			out.DiskStitched++
			r.arts[key] = art
			return art, nil
		}
		r.Delete(key)
	}
	art, res, err := r.compileBlock(b, o, peep)
	if err != nil {
		return nil, err
	}
	out.Recompiled++
	if res.CacheHit {
		out.CoverCacheHits++
	}
	if res.DiskHit {
		out.CoverDiskHits++
	}
	r.arts[key] = art
	if data, ok := cover.EncodeResult(res); ok {
		r.Put(key, data)
	}
	return art, nil
}

// compileBlock is aviv.CompileBlock's pipeline with the server's shared
// cover-level tiers.
func (r *replayer) compileBlock(b *ir.Block, o cover.Options, peep bool) (*artifact, *cover.Result, error) {
	o.Cache = r.cache
	o.Store = r
	sp := r.tr.start("cover.CoverBlock")
	res, err := cover.CoverBlock(b, r.m, o)
	r.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if !res.CacheHit {
		r.n.freshSearches++
		r.n.assignments += res.AssignmentsExplored
	}
	a, err := r.tail(res.Best, peep)
	return a, res, err
}

// rebuild is the engine's disk stitch: re-derive the pruned block and
// its Split-Node DAG, decode the stored covering against them, and run
// the tail passes.
func (r *replayer) rebuild(data []byte, b *ir.Block, o cover.Options, peep bool) (*artifact, error) {
	covered := b
	if o.LiveOut != nil {
		covered, _ = dataflow.PruneBlock(b, o.LiveOut)
	}
	sp := r.tr.start("sndag.Build")
	dag, err := sndag.Build(covered, r.m)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.start("cover.DecodeResult")
	res, err := cover.DecodeResult(data, dag)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return r.tail(res.Best, peep)
}

// tail runs peephole, register allocation and emission on a covering.
func (r *replayer) tail(sol *cover.Solution, peep bool) (*artifact, error) {
	saved := 0
	if peep {
		before := sol.Cost()
		sp := r.tr.start("peephole.Optimize")
		sol = peephole.Optimize(sol)
		r.tr.end(sp)
		saved = before - sol.Cost()
	}
	sp := r.tr.start("regalloc.Allocate")
	alloc, err := regalloc.Allocate(sol)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.start("asm.EmitBlock")
	code, err := asm.EmitBlock(sol, alloc)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &artifact{code: code, spills: sol.SpillCount, saved: saved}, nil
}
