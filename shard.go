package mpic

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

// ShardOptions configures one worker of a sharded grid session — one
// RunGridSharded call among the N that share a LeaseStore.
type ShardOptions struct {
	// Worker names this worker in the lease ledger. Workers sharing a
	// session must use distinct names; "" derives one from the process
	// id, which is unique across processes but NOT across goroutines —
	// in-process pools must name their shards.
	Worker string
	// LeaseTTL is how long a claimed cell stays leased without renewal;
	// it bounds how long a crashed worker's cells stay out of rotation.
	// 0 means 30s. A TTL shorter than a cell's runtime is safe — a
	// background renewer extends live leases, and even a lapsed lease
	// only risks duplicated (bit-identical) work, never wrong results.
	// The renewer runs at a third of the TTL, but at most once per
	// millisecond, so even a nanosecond TTL is valid.
	LeaseTTL time.Duration
	// Batch is how many cells to claim per round trip (0 means 1).
	// Larger batches amortize ledger writes at the cost of coarser
	// rebalancing when workers run at different speeds.
	Batch int
	// Poll is how long to wait before re-asking for work when every
	// pending cell is leased to someone else (0 means 200ms).
	Poll time.Duration
}

func (o ShardOptions) withDefaults() ShardOptions {
	if o.Worker == "" {
		o.Worker = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.Batch < 1 {
		o.Batch = 1
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	return o
}

// RunGridSharded executes one worker's share of a grid whose cells are
// coordinated through a LeaseStore: claim pending cells, execute each on
// the same per-cell path as RunGrid (retry policy, panic containment,
// and quarantine semantics intact), persist each completed cell under
// its lease, and repeat until the session has no pending cells. Run N
// of these — goroutines sharing one store, or separate processes
// sharing a session directory — and the merged session is bit-identical
// to a sequential RunGrid of the same grid: cells are pure functions of
// spec + salt, the lease protocol only partitions them.
//
// The grid must not set Store — the lease store owns persistence, and a
// second store would double-write. Restored cells are not streamed
// (workers see only the cells they execute); read the finished session
// with RunGrid over Grid{..., Store: store}, which restores every cell
// and finishes any the shards left behind.
//
// Failure semantics match RunGrid: under FailFast the first cell error
// aborts this worker (others keep going — they share no engine state);
// under QuarantineCells the failure is recorded in the ledger so no
// worker re-claims the cell, and when the session drains with failures
// recorded, every worker returns a *GridFailure whose report carries
// the session-wide failed cells. On any return — including cancellation
// — the worker releases its leases; only a crash leaves leases to
// expire.
//
// Progress events are serialized within this worker only. A Progress
// callback shared by several in-process workers must synchronize its
// own state (the grid service's event hub does exactly that).
func (r *Runner) RunGridSharded(ctx context.Context, g Grid, store LeaseStore, opts ShardOptions, sink GridSink) error {
	if store == nil {
		return fmt.Errorf("mpic: RunGridSharded needs a LeaseStore")
	}
	if g.Store != nil {
		return fmt.Errorf("mpic: sharded grids must not set Grid.Store — the lease store owns persistence")
	}
	if err := g.validate(); err != nil {
		return err
	}
	if len(g.Cells) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	spec := g.Spec
	if spec == "" {
		spec = g.Fingerprint()
	}

	var prog *progressEmitter
	if g.Progress != nil {
		prog = &progressEmitter{fn: g.Progress}
	}

	// The renewer extends this worker's leases at a third of the TTL so
	// a slow cell never lapses under a live worker. Best-effort: a
	// failed renewal risks duplicated work, not wrong results.
	renewCtx, stopRenew := context.WithCancel(ctx)
	var renewWG sync.WaitGroup
	renewWG.Add(1)
	go func() {
		defer renewWG.Done()
		tick := time.NewTicker(max(opts.LeaseTTL/3, time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-tick.C:
				_ = store.Renew(spec, opts.Worker, opts.LeaseTTL)
			}
		}
	}()
	defer func() {
		stopRenew()
		renewWG.Wait()
		// Graceful exit: hand unfinished claims back immediately instead
		// of making the other workers wait out the TTL.
		_ = store.Release(spec, opts.Worker)
	}()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		claimed, pending, err := store.Claim(spec, opts.Worker, len(g.Cells), opts.Batch, opts.LeaseTTL)
		if err != nil {
			return err
		}
		if pending == 0 {
			break
		}
		if len(claimed) == 0 {
			// Everything pending is leased elsewhere; wait for leases to
			// resolve (complete, release, or expire) and ask again.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(opts.Poll):
			}
			continue
		}
		for _, i := range claimed {
			res, err := r.runGridCellRetrying(ctx, g, i, prog)
			if err != nil && g.OnCellError == QuarantineCells && ctx.Err() == nil {
				if mferr := store.MarkFailed(spec, opts.Worker, FailedCell{
					Cell: i, Worker: opts.Worker, Attempts: res.Attempts, Reason: err.Error(),
				}); mferr != nil {
					return mferr
				}
				if prog != nil {
					prog.emit(GridProgress{
						Event: GridCellFailed,
						Cell:  i, Cells: len(g.Cells),
						Key: res.Key, Err: err, Attempt: res.Attempts,
					})
				}
				if sink != nil {
					res.Err = err
					res.Results = nil
					res.Cell = SweepCell{N: res.Key.N, Scheme: res.Key.Scheme, Rate: res.Key.Rate, Delay: res.Key.Delay}
					sink(res)
				}
				continue
			}
			if err != nil {
				return err
			}
			if err := store.SaveCell(spec, opts.Worker, StoredCell{
				Index: res.Index, Key: res.Key, Cell: res.Cell,
				Results: storeResults(res.Results),
			}); err != nil {
				return err
			}
			if prog != nil {
				prog.emit(GridProgress{
					Event: GridCellDone,
					Cell:  res.Index, Cells: len(g.Cells),
					Key: res.Key, Trials: res.Cell.Trials,
				})
			}
			if sink != nil {
				sink(res)
			}
		}
	}

	// The session drained. Quarantined cells anywhere in the session —
	// this worker's or a peer's — surface exactly like RunGrid's partial
	// success.
	failed, err := store.Failures(spec)
	if err != nil {
		return err
	}
	if len(failed) > 0 {
		report := GridReport{Cells: len(g.Cells)}
		cells, err := store.Load(spec)
		if err != nil {
			return err
		}
		report.Completed = len(cells)
		for _, f := range failed {
			key := GridKey{}
			if f.Cell >= 0 && f.Cell < len(g.Cells) {
				key = g.Cells[f.Cell].key()
			}
			report.Failed = append(report.Failed, GridCellResult{
				Index: f.Cell, Key: key,
				Cell:     SweepCell{N: key.N, Scheme: key.Scheme, Rate: key.Rate, Delay: key.Delay},
				Err:      fmt.Errorf("%s", f.Reason),
				Attempts: f.Attempts,
			})
		}
		return &GridFailure{Report: report}
	}
	return nil
}
