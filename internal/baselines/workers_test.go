package baselines

import (
	"math"
	"testing"

	"repro/internal/fl"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func cnn2(int) models.Arch { return models.ArchCNN2 }

// workersRun executes FedAvg under one scheduler with the tensor worker pool
// capped at workers and returns the metrics history plus every client's
// final flat parameters.
func workersRun(t *testing.T, arch func(int) models.Arch, kind fl.SchedulerKind, workers int) ([]fl.RoundMetrics, [][]float64) {
	t.Helper()
	prev := tensor.SetMaxWorkers(workers)
	defer tensor.SetMaxWorkers(prev)
	clients := fleet(t, 4, arch)
	sim := fl.NewSimulation(clients, fl.Config{Rounds: 2, BatchSize: 8, Seed: 3})
	hist, err := sim.RunScheduled(NewFedAvg(1), fl.SchedulerConfig{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	finals := make([][]float64, len(clients))
	for i, c := range clients {
		finals[i] = nn.FlattenParams(c.Model.Params())
	}
	return hist, finals
}

// TestWorkerCountInvariance pins end-to-end determinism across pool widths:
// under every scheduler, a FedAvg run with the worker pool capped at one
// must be byte-identical to the run at full width — metrics history and
// every client's final weights — for both a dense-only and a convolutional
// homogeneous fleet. Concurrent local updates, GEMM shards and conv chunks
// may only change which goroutine runs a unit of work, never its bits.
func TestWorkerCountInvariance(t *testing.T) {
	archs := map[string]func(int) models.Arch{"mlp": mlp, "cnn2": cnn2}
	kinds := []fl.SchedulerKind{fl.SchedSync, fl.SchedAsyncBounded, fl.SchedSemiSync}
	for name, arch := range archs {
		for _, kind := range kinds {
			serial, serialParams := workersRun(t, arch, kind, 1)
			wide, wideParams := workersRun(t, arch, kind, tensor.Workers())
			if len(serial) != len(wide) {
				t.Fatalf("%s/%s: history length %d vs %d", name, kind, len(wide), len(serial))
			}
			for r := range serial {
				a, b := serial[r], wide[r]
				if math.Float64bits(a.MeanAcc) != math.Float64bits(b.MeanAcc) ||
					math.Float64bits(a.StdAcc) != math.Float64bits(b.StdAcc) ||
					a.UpBytes != b.UpBytes || a.DownBytes != b.DownBytes {
					t.Fatalf("%s/%s round %d: full-width metrics diverge: %+v vs %+v", name, kind, r, b, a)
				}
				for i := range a.PerClient {
					if math.Float64bits(a.PerClient[i]) != math.Float64bits(b.PerClient[i]) {
						t.Fatalf("%s/%s round %d client %d: accuracy bits diverge", name, kind, r, i)
					}
				}
			}
			for i := range serialParams {
				for j := range serialParams[i] {
					if math.Float64bits(serialParams[i][j]) != math.Float64bits(wideParams[i][j]) {
						t.Fatalf("%s/%s client %d param %d: %x vs %x", name, kind, i, j,
							math.Float64bits(wideParams[i][j]), math.Float64bits(serialParams[i][j]))
					}
				}
			}
		}
	}
}
