package main

import (
	"fmt"
	"path/filepath"

	"fpvm"
	"fpvm/internal/checkpoint"
	"fpvm/internal/obj"
)

// fleet.Run and the fpvmd worker make their slice calls internally, so
// the traced run of a sliced workload replays each distinct job once
// more through the same public calls — fpvm.Prepare, then VM.Run or
// VM.Resume per quantum — and times them from here. Every snapshot that
// comes back is also decoded and re-encoded (and, for the durable
// workload, written atomically) so those layers get their own spans.

// sliceWork names the spans whose time the real slice loop spends; the
// replay's extra decode/encode duplicate work done inside Resume/Run.
var sliceWork = []string{"vm.prepare", "vm.run", "vm.resume", "checkpoint.write"}

// replayJob is one distinct job of a sliced workload. cfg is called once
// per replayed run, so each run can get the cache state its workload
// gives a job.
type replayJob struct {
	name string
	img  *obj.Image
	cfg  func() fpvm.Config
	want expect
}

// replayStats aggregates the first replay of every distinct job.
type replayStats struct {
	jobs, slices  int
	snapshotBytes float64 // summed over every snapshot taken
	snapshots     int
	cycles        map[string]uint64 // virtual cycles of each job
}

// replaySliced runs each job unsliced (the tax baseline) and then sliced
// at quantum, replayReps times. writeDir, when set, receives each
// snapshot through checkpoint.WriteFileAtomic as fpvmd persists it.
func replaySliced(tr *tracer, jobs []replayJob, quantum uint64, writeDir string) (replayStats, error) {
	st := replayStats{cycles: make(map[string]uint64)}
	for r := 0; r < replayReps; r++ {
		for _, j := range jobs {
			cycles, err := replayUnsliced(tr, j, r)
			if err != nil {
				return st, err
			}
			st.cycles[j.name] = cycles
			slices, bytes, err := replayOne(tr, j, r, quantum, writeDir)
			if err != nil {
				return st, err
			}
			if r == 0 {
				st.jobs++
				st.slices += slices
				st.snapshots += slices - 1
				st.snapshotBytes += bytes
			}
		}
	}
	return st, nil
}

func replayUnsliced(tr *tracer, j replayJob, rep int) (uint64, error) {
	id := fmt.Sprintf("replay/%s/unsliced/%d", j.name, rep)
	root := tr.begin("replay.job", id, 0)
	defer tr.end(root)
	sp := tr.begin("vm.prepare", id, root)
	vm, err := fpvm.Prepare(j.img, j.cfg())
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", j.name, err)
	}
	sp = tr.begin("vm.run", id, root)
	res, err := vm.Run()
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", j.name, err)
	}
	if err := j.want.check(res.Stdout, res.Cycles, digestOf(res.Final)); err != nil {
		return 0, fmt.Errorf("replay %s (unsliced): %w", j.name, err)
	}
	return res.Cycles, nil
}

// replayOne runs one job slice by slice and returns its slice count and
// the bytes of every snapshot it produced.
func replayOne(tr *tracer, j replayJob, rep int, quantum uint64, writeDir string) (int, float64, error) {
	id := fmt.Sprintf("replay/%s/sliced/%d", j.name, rep)
	root := tr.begin("replay.job", id, 0)
	defer tr.end(root)

	cfg := j.cfg()
	var snap []byte
	bytes := 0.0
	for slices := 1; ; slices++ {
		sl := tr.begin("slice", id, root)
		sp := tr.begin("vm.prepare", id, sl)
		vm, err := fpvm.Prepare(j.img, cfg)
		tr.end(sp)
		if err != nil {
			tr.end(sl)
			return 0, 0, fmt.Errorf("replay %s: %w", j.name, err)
		}
		vm.SetPreemptQuantum(quantum)
		var res *fpvm.Result
		if snap == nil {
			sp = tr.begin("vm.run", id, sl)
			res, err = vm.Run()
		} else {
			sp = tr.begin("vm.resume", id, sl)
			res, err = vm.Resume(snap)
		}
		tr.end(sp)
		if err != nil {
			tr.end(sl)
			return 0, 0, fmt.Errorf("replay %s slice %d: %w", j.name, slices, err)
		}
		if !res.Preempted {
			tr.end(sl)
			if err := j.want.check(res.Stdout, res.Cycles, digestOf(res.Final)); err != nil {
				return 0, 0, fmt.Errorf("replay %s (sliced): %w", j.name, err)
			}
			return slices, bytes, nil
		}
		snap = res.Snapshot
		bytes += float64(len(snap))
		if err := timeCodec(tr, id, sl, snap); err != nil {
			tr.end(sl)
			return 0, 0, fmt.Errorf("replay %s slice %d: %w", j.name, slices, err)
		}
		if writeDir != "" {
			sp = tr.begin("checkpoint.write", id, sl)
			err = checkpoint.WriteFileAtomic(filepath.Join(writeDir, "replay.snap"), snap)
			tr.end(sp)
			if err != nil {
				tr.end(sl)
				return 0, 0, err
			}
		}
		tr.end(sl)
	}
}

// timeCodec decodes a snapshot and encodes it again, checking that the
// round trip is byte-identical.
func timeCodec(tr *tracer, id string, parent int, snap []byte) error {
	sp := tr.begin("checkpoint.decode", id, parent)
	img, err := checkpoint.Decode(snap)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("checkpoint.encode", id, parent)
	again, err := img.Encode()
	tr.end(sp)
	if err != nil {
		return err
	}
	if string(again) != string(snap) {
		return fmt.Errorf("snapshot re-encodes to %d bytes that differ from the %d decoded", len(again), len(snap))
	}
	return nil
}

// sliceLayers adds the slicing metrics of a replay to m.
func sliceLayers(tr *tracer, st replayStats, m map[string]float64) {
	inReplay := func(kind string) func(string) bool {
		return func(job string) bool { return matchJob(job, "replay/", kind) }
	}
	m["slice.count"] = ratio(float64(st.slices), float64(st.jobs))
	m["checkpoint.snapshot_kb"] = ratio(st.snapshotBytes, float64(st.snapshots)) / 1024
	m["slice.resume_ms"] = median(tr.durationsWhere("vm.resume", inReplay("/sliced/")))
	m["checkpoint.decode_ms"] = median(tr.durationsWhere("checkpoint.decode", inReplay("/sliced/")))
	m["checkpoint.encode_ms"] = median(tr.durationsWhere("checkpoint.encode", inReplay("/sliced/")))
	m["checkpoint.write_ms"] = median(tr.durationsWhere("checkpoint.write", inReplay("/sliced/")))
	unsliced := sum(tr.durationsWhere("vm.run", inReplay("/unsliced/")))
	sliced := 0.0
	for _, name := range sliceWork {
		sliced += sum(tr.durationsWhere(name, inReplay("/sliced/")))
	}
	m["slice.tax_share"] = 1 - ratio(unsliced, sliced)
	m["vm.prepare_ms"] = median(tr.durationsWhere("vm.prepare", inReplay("/sliced/")))
}

// replayRunLayers adds the unsliced step-loop metrics of a replay to m.
func replayRunLayers(tr *tracer, st replayStats, m map[string]float64) {
	stepLoopLayers(tr, st.cycles, func(name string) func(string) bool {
		return func(job string) bool { return matchJob(job, "replay/"+name+"/", "/unsliced/") }
	}, m)
}

// stepLoopLayers adds each job's median vm.run time and the host ns per
// 1000 virtual cycles over all vm.run spans. cycles holds each job's
// virtual cycles; of selects a job's vm.run spans by job ID.
func stepLoopLayers(tr *tracer, cycles map[string]uint64, of func(name string) func(string) bool, m map[string]float64) {
	var runMs, total float64
	for name, c := range cycles {
		d := tr.durationsWhere("vm.run", of(name))
		m["vm.run_ms."+name] = median(d)
		runMs += sum(d)
		total += float64(len(d)) * float64(c)
	}
	m["vm.ns_per_kcycle"] = ratio(runMs*1e6, total) * 1000
}
