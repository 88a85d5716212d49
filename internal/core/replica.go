package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"p2pltr/internal/checkpoint"
	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/ot"
	"p2pltr/internal/p2plog"
	"p2pltr/internal/patch"
	"p2pltr/internal/trace"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// ErrMasterUnavailable is returned when the Master-key peer (and every
// takeover candidate) cannot be reached within the retry budget.
var ErrMasterUnavailable = errors.New("core: master-key peer unavailable")

// ErrTruncated is returned when a replica holding tentative edits needs
// committed patches whose log prefix was truncated beneath it: OT needs
// exactly the intermediate patches the checkpoint skipped, so the replica
// cannot catch up losslessly. Callers either discard the tentative edits
// (Pull again after clearing them) or opt into RebaseOntoCheckpoint,
// which re-anchors them on the checkpoint state at the cost of positional
// precision.
var ErrTruncated = errors.New("core: log prefix truncated beneath tentative edits")

// ErrTentativeDropped reports that a checkpoint rebase discarded every
// remaining tentative op (none could re-anchor on the snapshot), so
// Commit published nothing. The committed state is nonetheless current —
// the application decides whether to re-apply the lost edit.
var ErrTentativeDropped = errors.New("core: rebase dropped all tentative edits; nothing committed")

// Replica is the local primary copy of one document at a user peer.
//
// It maintains the committed state (the prefix of the total order it has
// integrated, with timestamp CommittedTS) plus a tentative operation
// sequence — local edits not yet validated. The working view presented to
// the user is committed state + tentative ops.
//
// All methods are safe for concurrent use; Commit and Pull serialize
// against edits.
type Replica struct {
	peer *Peer
	key  string // document key (e.g. "Main.WebHome")
	site string // author site identifier

	// mu serializes Commit/Pull against edits. It is a vclock.Mutex,
	// not sync.Mutex, because Commit and Pull hold it across the whole
	// RPC pipeline (admission, submit, retrieve, ack) — calls that park
	// the virtual timeline under deterministic simulation. A plain
	// sync.Mutex held across a park freezes every goroutine queued on
	// it; vclock.Mutex hands off through the scheduler (and degrades to
	// a plain mutex on the wall clock).
	mu          *vclock.Mutex
	committed   *patch.Document
	committedTS uint64
	tentative   []patch.Op
	// idBase prefixes every patch ID this replica mints: the site and a
	// session that no other replica of the site shares, so seq may start
	// at 0 again in every session (see NewReplica).
	idBase string
	seq    uint64 // session-local patch counter
	// pendingID is the patch ID minted for the current tentative ops; a
	// Commit retried over unchanged ops reuses it, so a patch the master
	// granted before the failed call is recognised in the log. Empty
	// when there is no tentative patch or an edit changed it.
	pendingID string
	// stats
	behindRounds int64
	retrieved    int64
	// checkpoint bookkeeping: the newest checkpoint timestamp learned
	// from master acks, and counters for produced snapshots and
	// checkpoint-based bootstraps.
	seenCkptTS     uint64
	ckptPublished  int64
	ckptBootstraps int64
	ckptRebases    int64
	// noCkptProduce suppresses boundary-author snapshot production (tests,
	// plans and the benchmark model an author dying right after its
	// boundary commit).
	noCkptProduce bool
	// rebaseOnCkpt opts into rebasing tentative edits onto the checkpoint
	// state when the log prefix beneath them was truncated.
	rebaseOnCkpt bool
}

// NewReplica opens the document key at peer, with site as the author
// identity (must be unique among collaborating user peers). The document
// starts from the empty state at timestamp 0; Pull brings it up to date
// with any previously committed patches.
//
// Each replica is a new session of its site: its patch IDs carry the
// peer's address, how many replicas the peer opened before it and the
// clock reading. A site reopened on another peer, on the same peer or in
// a restarted process therefore never mints an ID an earlier session
// used, which the master and the log would take for that session's patch.
// Nothing is kept across a restart but what the log holds: uncommitted
// edits are lost.
func NewReplica(peer *Peer, key, site string) *Replica {
	session := string(peer.Addr()) + "." + strconv.FormatUint(peer.replicas.Add(1), 36) +
		"." + strconv.FormatInt(peer.clock.Now().UnixNano(), 36)
	return &Replica{
		peer:      peer,
		key:       key,
		site:      site,
		idBase:    site + "@" + session,
		mu:        vclock.NewMutex(peer.clock),
		committed: patch.NewDocument(""),
	}
}

// Key returns the document key.
func (r *Replica) Key() string { return r.key }

// Site returns the author site identifier.
func (r *Replica) Site() string { return r.site }

// CommittedTS returns the timestamp of the last integrated patch.
func (r *Replica) CommittedTS() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committedTS
}

// Text returns the working view: committed state plus tentative edits.
func (r *Replica) Text() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.workingLocked().String()
}

// CommittedText returns the committed state only.
func (r *Replica) CommittedText() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed.String()
}

// Dirty reports whether there are tentative (unvalidated) edits.
func (r *Replica) Dirty() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tentative) > 0
}

// Stats returns how many validation rounds found this replica behind and
// how many missing patches it retrieved — the paper's Figure-5 metrics.
func (r *Replica) Stats() (behindRounds, retrieved int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.behindRounds, r.retrieved
}

// CheckpointStats returns how many checkpoints this replica produced and
// how many times it bootstrapped from one instead of replaying the log.
func (r *Replica) CheckpointStats() (published, bootstraps int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckptPublished, r.ckptBootstraps
}

// KnownCheckpointTS returns the newest checkpoint timestamp this replica
// has learned from master acks (piggybacked on validation and last_ts).
func (r *Replica) KnownCheckpointTS() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seenCkptTS
}

// Rebases returns how many times this replica rebased tentative edits
// onto a checkpoint after finding its log prefix truncated.
func (r *Replica) Rebases() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckptRebases
}

// SetCheckpointProduction toggles this replica's boundary-author snapshot
// production (on by default). The maintain tests, the plan runner's
// boundary-author kills and churn-heal turn it off to model an author
// that dies right after its boundary commit — the liveness gap the
// maintenance engine's fallback producer closes.
func (r *Replica) SetCheckpointProduction(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noCkptProduce = !on
}

// SetRebaseOntoCheckpoint opts this replica into the truncated-prefix
// recovery policy: when catch-up hits a truncated log prefix while
// tentative edits are pending (the ErrTruncated condition), the replica
// installs the checkpoint state and re-anchors the tentative ops onto it
// by clamping their positions — positional precision is lost, local
// intent is not. Off by default: the lossless default is to surface
// ErrTruncated and let the application decide.
//
// Known limitation: if this replica's own in-flight patch was already
// committed by a previous master incarnation (lost ack) AND the prefix
// holding it was checkpointed and truncated before the retry, the rebase
// cannot recognize the patch inside the snapshot (the log record that
// carried its ID is gone) and re-commits the ops — the edit applies
// twice. The window requires a master crash, a checkpoint boundary and a
// truncation all inside one retry backoff; deployments that cannot
// accept it should leave the policy off and handle ErrTruncated
// explicitly.
func (r *Replica) SetRebaseOntoCheckpoint(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rebaseOnCkpt = on
}

func (r *Replica) workingLocked() *patch.Document {
	d := r.committed.Clone()
	for _, op := range r.tentative {
		// Tentative ops are generated against the working doc and rebased
		// on every committed patch, so they always apply.
		if err := d.Apply(op); err != nil {
			panic(fmt.Sprintf("core: tentative op %v invalid on %q: %v", op, d.String(), err))
		}
	}
	return d
}

// Insert appends a tentative line insertion at pos of the working view.
func (r *Replica) Insert(pos int, line string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workingLocked()
	if pos < 0 || pos > w.Len() {
		return fmt.Errorf("core: insert at %d out of bounds (len %d)", pos, w.Len())
	}
	r.tentative = append(r.tentative, patch.Op{Kind: patch.OpInsert, Pos: pos, Line: line})
	r.pendingID = ""
	return nil
}

// Delete appends a tentative deletion of line pos of the working view.
func (r *Replica) Delete(pos int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workingLocked()
	if pos < 0 || pos >= w.Len() {
		return fmt.Errorf("core: delete at %d out of bounds (len %d)", pos, w.Len())
	}
	r.tentative = append(r.tentative, patch.Op{Kind: patch.OpDelete, Pos: pos, Line: w.Line(pos)})
	r.pendingID = ""
	return nil
}

// SetText replaces the working view with text, recording the difference
// as tentative edits (this models the paper's document save operation).
func (r *Replica) SetText(text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workingLocked()
	target := patch.NewDocument(text)
	r.tentative = append(r.tentative, patch.Diff(w, target)...)
	r.pendingID = ""
}

// ---------------------------------------------------------------------------
// The three P2P-LTR procedures.

// Commit runs the patch timestamp validation procedure for the current
// tentative patch: it contacts the Master-key; when behind it retrieves
// the missing patches in total order, integrates them (transforming the
// tentative patch So6-style), and retries until the master validates and
// publishes the patch. It returns the validated timestamp.
//
// Committing with no tentative edits degenerates to Pull.
func (r *Replica) Commit(ctx context.Context) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tentative) == 0 {
		if err := r.pullLocked(ctx); err != nil {
			return r.committedTS, err
		}
		return r.committedTS, nil
	}

	if r.pendingID == "" {
		r.seq++
		r.pendingID = patch.NewPatchID(r.idBase, r.seq)
	}
	p := patch.Patch{
		ID:     r.pendingID,
		Author: r.site,
		BaseTS: r.committedTS,
		Ops:    append([]patch.Op(nil), r.tentative...),
	}

	sp := trace.FromContext(ctx)
	// The wire form changes only when a Behind round rebased the ops: a
	// Busy round resends these bytes, the ack applies final and hands enc
	// on to the peer's serving front.
	final := ot.Compact(p)
	enc, err := final.Encode()
	if err != nil {
		return r.committedTS, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return r.committedTS, err
		}
		resp, err := r.callMaster(ctx, &msg.ValidateReq{
			Key: r.key, TS: r.committedTS, Patch: enc, PatchID: p.ID,
		})
		if err != nil {
			return r.committedTS, err
		}
		if resp.CkptTS > r.seenCkptTS {
			r.seenCkptTS = resp.CkptTS
		}
		switch resp.Status {
		case msg.ValidateOK:
			// The patch is committed at resp.ValidatedTS: fold it into the
			// committed state.
			if err := r.committed.ApplyPatch(final); err != nil {
				return r.committedTS, fmt.Errorf("core: applying own validated patch: %w", err)
			}
			r.committedTS = resp.ValidatedTS
			r.tentative, r.pendingID = nil, ""
			if f := r.peer.servingFront(); f != nil {
				// The very bytes the master published at this timestamp.
				f.Committed(p2plog.Record{Key: r.key, TS: resp.ValidatedTS, PatchID: p.ID, Patch: enc})
			}
			sp.Mark("apply")
			r.maybeCheckpointLocked(ctx, resp.ValidatedTS)
			sp.Mark("checkpoint")
			return r.committedTS, nil

		case msg.ValidateBehind:
			r.behindRounds++
			gap := int64(resp.LastTS) - int64(r.committedTS)
			ownTS, err := r.integrateMissingLocked(ctx, resp.LastTS, p.ID)
			sp.MarkN("retrieve", gap)
			if ownTS != 0 {
				// Our patch was already committed by a previous master
				// incarnation or a lost ValidateOK ack (crash window):
				// integrateMissingLocked installed the log's version and
				// cleared the tentative. Return the timestamp the log
				// assigned to OUR patch, not the caught-up committedTS —
				// other patches integrated in the same round may have
				// advanced it past our slot, and reporting their timestamp
				// as ours would show one grant as two distinct commits.
				// That holds even when a later record of the range failed
				// to arrive (err != nil): the commit is done, the rest of
				// the range is the next Pull's work.
				return ownTS, nil
			}
			if err != nil {
				return r.committedTS, err
			}
			if len(r.tentative) == 0 {
				// A checkpoint rebase dropped every tentative op (e.g.
				// deletes clamped onto a shorter snapshot): nothing is
				// left to publish, and committing an empty patch would
				// burn a total-order timestamp on a no-op revision. The
				// sentinel tells the caller its edit did NOT commit even
				// though the replica is consistent and current.
				r.pendingID = ""
				return r.committedTS, ErrTentativeDropped
			}
			// Rebase the pending patch on the newly integrated commits.
			p.Ops = append([]patch.Op(nil), r.tentative...)
			p.BaseTS = r.committedTS
			final = ot.Compact(p)
			if enc, err = final.Encode(); err != nil {
				return r.committedTS, err
			}

		case msg.ValidateBusy:
			// Hot-key admission shed this request before it touched any
			// master state; honor the backoff hint and retry as-is.
			d := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if d <= 0 {
				d = 25 * time.Millisecond
			}
			if err := r.peer.clock.Sleep(ctx, d); err != nil {
				return r.committedTS, err
			}
			sp.Mark("busy-backoff")

		default:
			return r.committedTS, fmt.Errorf("core: unexpected validate status %v", resp.Status)
		}
	}
}

// Pull integrates committed patches this replica has not seen, without
// publishing anything (the retrieval procedure alone).
func (r *Replica) Pull(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pullLocked(ctx)
}

// PullTo integrates committed history up to exactly target — never past
// it. The maintenance engine's fallback checkpoint producer uses it to
// reconstruct the committed state at a missed boundary: bootstrap from
// the newest checkpoint at or before target, then replay the log tail.
func (r *Replica) PullTo(ctx context.Context, target uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.committedTS > target {
		return fmt.Errorf("core: replica of %s already at ts %d, past target %d", r.key, r.committedTS, target)
	}
	if len(r.tentative) > 0 {
		return fmt.Errorf("core: PullTo(%s, %d) with tentative edits pending", r.key, target)
	}
	if r.committedTS == target {
		return nil
	}
	ptr, err := r.peer.Ckpt.LatestPointer(ctx, r.key)
	if err != nil {
		return fmt.Errorf("core: checkpoint pointer for %s: %w", r.key, err)
	}
	if ptr > r.seenCkptTS {
		r.seenCkptTS = ptr
	}
	if ptr > r.committedTS && ptr <= target {
		if _, err := r.bootstrapFromCheckpointLocked(ctx, ptr); err != nil {
			return err
		}
	}
	if _, err := r.integrateMissingLocked(ctx, target, ""); err != nil {
		return err
	}
	if r.committedTS != target {
		return fmt.Errorf("core: pulled %s to ts %d, want %d", r.key, r.committedTS, target)
	}
	return nil
}

// CommittedLines returns a copy of the committed document's lines (the
// snapshot content a checkpoint of this replica would publish).
func (r *Replica) CommittedLines() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed.Lines()
}

func (r *Replica) pullLocked(ctx context.Context) error {
	last, ckpt, err := r.lastTSFromMaster(ctx)
	if err != nil {
		return err
	}
	if ckpt > r.seenCkptTS {
		r.seenCkptTS = ckpt
	}
	// Bootstrap from the newest reachable checkpoint plus the log tail:
	// a cold (or long-offline) replica pays O(tail), not O(history).
	// Jumping is only legal with no tentative edits — transforming them
	// would need exactly the intermediate patches the jump skips.
	if ckpt > r.committedTS && len(r.tentative) == 0 {
		if _, err := r.bootstrapFromCheckpointLocked(ctx, ckpt); err != nil {
			return err
		}
	}
	_, err = r.integrateMissingLocked(ctx, last, "")
	return err
}

// bootstrapFromCheckpointLocked installs the snapshot taken at ts as the
// committed state, replacing whatever older prefix was integrated.
// Returns false when no replica of the promised checkpoint was reachable
// — the caller falls back to the log, which may still hold the full
// history.
func (r *Replica) bootstrapFromCheckpointLocked(ctx context.Context, ts uint64) (bool, error) {
	cp, err := r.peer.Ckpt.Fetch(ctx, r.key, ts)
	if err != nil {
		if errors.Is(err, checkpoint.ErrMissing) {
			return false, nil
		}
		return false, fmt.Errorf("core: checkpoint bootstrap for %s: %w", r.key, err)
	}
	r.committed = patch.FromLines(cp.Lines)
	r.committedTS = cp.TS
	r.ckptBootstraps++
	return true, nil
}

// maybeCheckpointLocked publishes a snapshot when this commit landed on a
// checkpoint boundary. The elected producer f(key, ts) is the author of
// the patch committed at ts — unique per timestamp by total order, so
// exactly one site does the work without coordination. Best-effort: a
// failed publish or announce only costs catch-up time, never
// correctness, and the next boundary elects a producer again.
func (r *Replica) maybeCheckpointLocked(ctx context.Context, ts uint64) {
	if r.noCkptProduce {
		return
	}
	if !checkpoint.ShouldCheckpoint(r.peer.opts.CheckpointInterval, ts) || r.committedTS != ts {
		return
	}
	cp := checkpoint.Checkpoint{Key: r.key, TS: ts, Lines: r.committed.Lines()}
	if _, err := r.peer.Ckpt.Publish(ctx, cp); err != nil {
		return
	}
	resp, err := r.announceCheckpoint(ctx, ts)
	if err != nil || !resp.Accepted {
		return
	}
	if resp.CkptTS > r.seenCkptTS {
		r.seenCkptTS = resp.CkptTS
	}
	r.ckptPublished++
	r.peer.Flight.Record(ctx, "ckpt-publish", r.key, "ts="+strconv.FormatUint(ts, 10))
}

// integrateMissingLocked retrieves patches (committedTS, lastTS] from the
// P2P-Log in total order and integrates each: the committed patch applies
// verbatim to the committed state while the tentative ops are transformed
// against it. If one of the retrieved patches is ownID (our own patch,
// republished by a previous master), the local tentative is superseded by
// the log's version and ownTS is the timestamp the log gave it (0: not
// among them). The records come through the peer's serving front when one
// is mounted, from peer.Log otherwise.
func (r *Replica) integrateMissingLocked(ctx context.Context, lastTS uint64, ownID string) (ownTS uint64, err error) {
	if lastTS <= r.committedTS {
		return 0, nil // a checkpoint jump can land past the requested range
	}
	var (
		recs []p2plog.Record
		ferr error
	)
	if f := r.peer.servingFront(); f != nil {
		recs, ferr = f.FetchRange(ctx, r.key, r.committedTS, lastTS)
	} else {
		recs, ferr = r.peer.Log.FetchRange(ctx, r.key, r.committedTS, lastTS)
	}
	// FetchRange returns the in-order prefix it resolved even when a later
	// timestamp is missing; integrate that prefix before classifying the
	// failure, so committedTS points exactly at the hole.
	for _, rec := range recs {
		if rec.TS != r.committedTS+1 {
			return ownTS, fmt.Errorf("core: total order violated: got ts %d after %d", rec.TS, r.committedTS)
		}
		cp, err := patch.Decode(rec.Patch)
		if err != nil {
			return ownTS, fmt.Errorf("core: decoding committed patch ts %d: %w", rec.TS, err)
		}
		if ownID != "" && rec.PatchID == ownID {
			// Crash-window case: this is our own patch, already committed.
			// The log's ops are authoritative; drop the local tentative.
			if err := r.committed.ApplyPatch(cp); err != nil {
				return 0, fmt.Errorf("core: applying own committed patch: %w", err)
			}
			r.committedTS = rec.TS
			r.tentative, r.pendingID = nil, ""
			ownTS = rec.TS
			continue
		}
		// Transform the tentative ops against the committed patch (and
		// vice versa — the committed patch applies to the committed state
		// directly, so only the tentative side is kept).
		r.tentative, _ = ot.TransformSeq(r.tentative, r.site, cp.Ops, cp.Author)
		if err := r.committed.ApplyPatch(cp); err != nil {
			return ownTS, fmt.Errorf("core: applying committed patch ts %d: %w", rec.TS, err)
		}
		r.committedTS = rec.TS
		r.retrieved++
	}
	if ferr == nil {
		return ownTS, nil
	}
	if errors.Is(ferr, p2plog.ErrMissing) {
		// The hole may be a prefix truncated *concurrently* with this
		// catch-up round, making the horizon piggybacked at its start
		// stale: re-read the pointer record before deciding.
		if ptr, perr := r.peer.Ckpt.LatestPointer(ctx, r.key); perr == nil && ptr > r.seenCkptTS {
			r.seenCkptTS = ptr
		}
		if r.committedTS < r.seenCkptTS {
			// The hole predates the truncation horizon: the prefix was
			// reclaimed under a fully-replicated checkpoint, not lost.
			if len(r.tentative) == 0 {
				// Nothing to transform — jump to the covering checkpoint
				// and keep integrating the tail. The checkpoint may lie
				// past lastTS: the truncation floor trails the pointer
				// by the engine's KeepIntervals margin, so a truncation
				// that opens a hole during this pull has usually moved
				// the pointer past lastTS, and landing beyond the
				// requested range is a plain catch-up.
				jumped, jerr := r.bootstrapFromCheckpointLocked(ctx, r.seenCkptTS)
				if jerr != nil {
					return ownTS, jerr
				}
				if jumped {
					// At most one of the two parts holds ownID.
					rest, err := r.integrateMissingLocked(ctx, lastTS, ownID)
					return max(ownTS, rest), err
				}
			} else {
				// OT would need exactly the patches truncation removed.
				if r.rebaseOnCkpt {
					if err := r.rebaseOntoCheckpointLocked(ctx); err != nil {
						return ownTS, err
					}
					rest, err := r.integrateMissingLocked(ctx, lastTS, ownID)
					return max(ownTS, rest), err
				}
				return ownTS, fmt.Errorf("%w: next ts %d of %s predates checkpoint %d (SetRebaseOntoCheckpoint to recover)",
					ErrTruncated, r.committedTS+1, r.key, r.seenCkptTS)
			}
		}
	}
	return ownTS, fmt.Errorf("core: retrieval for %s: %w", r.key, ferr)
}

// rebaseOntoCheckpointLocked is the opt-in truncated-prefix policy:
// install the checkpointed state as the new committed base and re-anchor
// the tentative ops onto it by clamping their positions into range. The
// ROADMAP's stated trade-off — positional precision is lost (the skipped
// patches can no longer transform the ops), local intent survives.
func (r *Replica) rebaseOntoCheckpointLocked(ctx context.Context) error {
	cp, err := r.peer.Ckpt.Fetch(ctx, r.key, r.seenCkptTS)
	if err != nil {
		return fmt.Errorf("core: rebasing %s onto checkpoint %d: %w", r.key, r.seenCkptTS, err)
	}
	doc := patch.FromLines(cp.Lines)
	r.tentative = rebaseOps(doc, r.tentative)
	r.committed = doc
	r.committedTS = cp.TS
	r.ckptRebases++
	return nil
}

// rebaseOps re-anchors tentative ops onto a new base document: positions
// are clamped into the base's range and deletes re-capture the line they
// now target. Ops that still cannot apply (delete on an empty document)
// are dropped. The returned sequence is applicable by construction, which
// the working-view invariant requires.
func rebaseOps(base *patch.Document, ops []patch.Op) []patch.Op {
	d := base.Clone()
	out := make([]patch.Op, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case patch.OpInsert:
			pos := op.Pos
			if pos > d.Len() {
				pos = d.Len()
			}
			if pos < 0 {
				pos = 0
			}
			op = patch.Op{Kind: patch.OpInsert, Pos: pos, Line: op.Line}
		case patch.OpDelete:
			if d.Len() == 0 {
				continue
			}
			pos := op.Pos
			if pos >= d.Len() {
				pos = d.Len() - 1
			}
			if pos < 0 {
				pos = 0
			}
			op = patch.Op{Kind: patch.OpDelete, Pos: pos, Line: d.Line(pos)}
		default:
			continue
		}
		if err := d.Apply(op); err != nil {
			continue
		}
		out = append(out, op)
	}
	return out
}

// ---------------------------------------------------------------------------
// Master-key communication.

// callMasterRaw locates the Master-key peer for the document (successor
// of ht(key)) and sends req, retrying lookups while the ring reorganizes
// (master departures, joins). notMaster reports whether a response came
// from a peer that no longer holds mastership, forcing a re-lookup.
func (r *Replica) callMasterRaw(ctx context.Context, req msg.Message, notMaster func(msg.Message) bool) (msg.Message, error) {
	tsID := ids.HashTS(r.key)
	var lastErr error
	sp := trace.FromContext(ctx)
	rc := r.peer.servingFront()
	if rc != nil {
		// Route-cache fast path: a memoized master reference skips the
		// O(log N) finger-path lookup. Safe by construction — every master
		// RPC's response carries a NotMaster verdict, so a stale entry is
		// detected by the callee itself, dropped, and the full lookup below
		// runs with its complete retry budget.
		if ref, ok := rc.Lookup(r.key); ok {
			resp, miss, err := r.tryMaster(ctx, "cached route", ref, req, notMaster)
			if miss == nil && err == nil {
				sp.MarkN("rpc", 1)
				sp.Note("route-cached", 1)
				return resp, nil
			}
			rc.Drop(r.key)
			if err != nil {
				return nil, err
			}
			lastErr = miss
		}
	}
	// One-hop path: a ring view that spans the whole ring names the
	// master without a lookup (chord.Node.Owner). The NotMaster verdict
	// guards the guess exactly as it guards the route cache.
	if ref, ok := r.peer.Node.Owner(tsID); ok {
		resp, miss, err := r.tryMaster(ctx, "guessed route", ref, req, notMaster)
		sp.MarkN("rpc", 1)
		if err != nil {
			return nil, err
		}
		if miss == nil {
			sp.Note("route-guessed", 1)
			if rc != nil {
				rc.Store(r.key, ref)
			}
			return resp, nil
		}
		lastErr = miss
	}
	for attempt := 0; attempt < clientAttempts; attempt++ {
		if attempt > 0 {
			if err := r.peer.clock.Sleep(ctx, r.peer.opts.ClientBackoff); err != nil {
				return nil, err
			}
			sp.Mark("backoff")
		}
		master, hops, err := r.peer.Node.FindSuccessor(ctx, tsID)
		sp.MarkN("route", int64(hops))
		if err != nil {
			lastErr = err
			continue
		}
		// Master operations run nested network work inside their handler,
		// so they get the application-level budget, not the chord
		// CallTimeout (see Peer.masterOpTimeout).
		resp, err := r.peer.Node.CallWithTimeout(ctx, transport.Addr(master.Addr), req, r.peer.masterOpTimeout)
		sp.MarkN("rpc", 1)
		if err != nil {
			lastErr = err
			if transport.IsUnavailable(err) {
				continue
			}
			var re *transport.RemoteError
			if errors.As(err, &re) {
				// Remote application failure (e.g. log peers unreachable
				// from the master): retry, the ring may have healed.
				continue
			}
			return nil, err
		}
		if notMaster(resp) {
			lastErr = fmt.Errorf("core: %s is not master for %s", master.Addr, r.key)
			continue // responsibility is mid-transfer; re-lookup
		}
		if rc != nil {
			rc.Store(r.key, master)
		}
		return resp, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrMasterUnavailable, lastErr)
}

// tryMaster sends req to ref, a master named without a lookup (what
// says how: "cached route", "guessed route"). It returns the response
// when ref answered as master; otherwise miss says why it did not
// (unreachable, a remote failure, NotMaster) and the caller walks. err
// is set only for a failure no lookup can mend: the context ended, or
// the call failed locally.
func (r *Replica) tryMaster(ctx context.Context, what string, ref msg.NodeRef, req msg.Message, notMaster func(msg.Message) bool) (resp msg.Message, miss, err error) {
	resp, err = r.peer.Node.CallWithTimeout(ctx, transport.Addr(ref.Addr), req, r.peer.masterOpTimeout)
	switch {
	case err == nil && !notMaster(resp):
		return resp, nil, nil
	case err == nil:
		return nil, fmt.Errorf("core: %s %s is not master for %s", what, ref.Addr, r.key), nil
	case transport.IsUnavailable(err):
		return nil, err, nil
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return nil, err, nil
	}
	return nil, nil, err // context cancelled or local failure
}

// callMaster implements the client side of patch validation.
func (r *Replica) callMaster(ctx context.Context, req *msg.ValidateReq) (*msg.ValidateResp, error) {
	resp, err := r.callMasterRaw(ctx, req, func(m msg.Message) bool {
		vr, ok := m.(*msg.ValidateResp)
		return ok && vr.Status == msg.ValidateNotMaster
	})
	if err != nil {
		return nil, err
	}
	vr, ok := resp.(*msg.ValidateResp)
	if !ok {
		return nil, fmt.Errorf("core: unexpected response %T", resp)
	}
	return vr, nil
}

// lastTSFromMaster implements the client side of last_ts(key); the
// master's latest-checkpoint pointer rides along on the ack.
func (r *Replica) lastTSFromMaster(ctx context.Context) (lastTS, ckptTS uint64, err error) {
	resp, err := r.callMasterRaw(ctx, &msg.LastTSReq{Key: r.key}, func(m msg.Message) bool {
		lr, ok := m.(*msg.LastTSResp)
		return ok && lr.NotMaster
	})
	if err != nil {
		return 0, 0, err
	}
	lr, ok := resp.(*msg.LastTSResp)
	if !ok {
		return 0, 0, fmt.Errorf("core: unexpected response %T", resp)
	}
	return lr.LastTS, lr.CkptTS, nil
}

// announceCheckpoint registers a published snapshot with the Master-key.
func (r *Replica) announceCheckpoint(ctx context.Context, ts uint64) (*msg.CheckpointAnnounceResp, error) {
	resp, err := r.callMasterRaw(ctx, &msg.CheckpointAnnounceReq{Key: r.key, TS: ts}, func(m msg.Message) bool {
		ar, ok := m.(*msg.CheckpointAnnounceResp)
		return ok && ar.NotMaster
	})
	if err != nil {
		return nil, err
	}
	ar, ok := resp.(*msg.CheckpointAnnounceResp)
	if !ok {
		return nil, fmt.Errorf("core: unexpected response %T", resp)
	}
	return ar, nil
}
