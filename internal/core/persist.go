package core

import (
	"fmt"

	"p2pltr/internal/msg"
	"p2pltr/internal/patch"
	"p2pltr/internal/wal"
)

// replicaState is the durable snapshot of a Replica: everything needed to
// resume collaboration after a process restart without refetching the
// whole P2P-Log.
type replicaState struct {
	Key         string
	Site        string
	Seq         uint64
	CommittedTS uint64
	Lines       []string
	Tentative   []patch.Op
	// PendingID is the patch ID minted for Tentative, so a Commit retried
	// after a restart is recognised in the log (empty = none minted).
	PendingID string
}

// snapshotLocked captures the current state; r.mu must be held.
func (r *Replica) snapshotLocked() replicaState {
	return replicaState{
		Key:         r.key,
		Site:        r.site,
		Seq:         r.seq,
		CommittedTS: r.committedTS,
		Lines:       r.committed.Lines(),
		Tentative:   append([]patch.Op(nil), r.tentative...),
		PendingID:   r.pendingID,
	}
}

// restoreLocked installs a snapshot; r.mu must be held.
func (r *Replica) restoreLocked(st replicaState) error {
	if st.Key != r.key {
		return fmt.Errorf("core: journal is for document %q, not %q", st.Key, r.key)
	}
	if st.Site != r.site {
		return fmt.Errorf("core: journal is for site %q, not %q", st.Site, r.site)
	}
	r.seq = st.Seq
	r.committedTS = st.CommittedTS
	r.committed = patch.FromLines(st.Lines)
	r.tentative = append([]patch.Op(nil), st.Tentative...)
	r.pendingID = st.PendingID
	return nil
}

// stateFormat is the leading byte of a journaled snapshot (see
// msg.Marshal). A journal written before the codec replaced gob starts
// with a gob length byte instead and is rejected with msg.ErrFormat.
const stateFormat = 0xD1

func (st *replicaState) wire(c *msg.Coder) {
	c.String(&st.Key)
	c.String(&st.Site)
	c.Uint64(&st.Seq)
	c.Uint64(&st.CommittedTS)
	msg.Slice(c, &st.Lines, 1, msg.StringElem)
	patch.WireOps(c, &st.Tentative)
	c.String(&st.PendingID)
}

func encodeState(st replicaState) ([]byte, error) {
	b, err := msg.Marshal(stateFormat, st.wire)
	if err != nil {
		return nil, fmt.Errorf("core: encode snapshot: %w", err)
	}
	return b, nil
}

func decodeState(b []byte) (replicaState, error) {
	var st replicaState
	if err := msg.Unmarshal(b, stateFormat, st.wire); err != nil {
		return replicaState{}, fmt.Errorf("core: decode snapshot: %w", err)
	}
	return st, nil
}

// compactThreshold bounds journal growth: once the file exceeds it, Save
// rewrites it to a single snapshot.
const compactThreshold = 1 << 20

// OpenReplica opens (or creates) a durable replica journaled at path.
// If the journal holds a previous session's state for the same document
// and site, it is restored — committed prefix, tentative edits, their
// pending patch ID and the author's patch sequence number all survive the
// restart, preserving the continuity of PatchIDs the crash-recovery
// protocol depends on.
//
// Commit and Pull persist automatically; call Save after local edits that
// must survive a crash before the next commit. Close the replica's
// journal with CloseJournal when done.
func OpenReplica(peer *Peer, key, site, path string) (*Replica, error) {
	r := NewReplica(peer, key, site)
	var last []byte
	j, err := wal.Open(path, func(rec []byte) error {
		last = append(last[:0], rec...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if last != nil {
		st, err := decodeState(last)
		if err != nil {
			j.Close()
			return nil, err
		}
		r.mu.Lock()
		err = r.restoreLocked(st)
		r.mu.Unlock()
		if err != nil {
			j.Close()
			return nil, err
		}
	}
	r.journal = j
	return r, nil
}

// Save durably persists the replica's current state to its journal (a
// no-op for replicas without one).
func (r *Replica) Save() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.saveLocked()
}

// saveLocked writes a snapshot record; r.mu must be held.
func (r *Replica) saveLocked() error {
	if r.journal == nil {
		return nil
	}
	b, err := encodeState(r.snapshotLocked())
	if err != nil {
		return err
	}
	if r.journal.Size() > compactThreshold {
		if err := r.journal.Compact([][]byte{b}); err != nil {
			return err
		}
		return r.journal.Sync()
	}
	if err := r.journal.Append(b); err != nil {
		return err
	}
	return r.journal.Sync()
}

// compactJournalLocked rewrites the journal to a single snapshot record;
// r.mu must be held. Checkpoint production and checkpoint bootstrap call
// it so local WAL recovery, like DHT catch-up, starts from a snapshot
// instead of a record chain.
func (r *Replica) compactJournalLocked() error {
	if r.journal == nil {
		return nil
	}
	b, err := encodeState(r.snapshotLocked())
	if err != nil {
		return err
	}
	if err := r.journal.Compact([][]byte{b}); err != nil {
		return err
	}
	return r.journal.Sync()
}

// JournalSize returns the journal's current size in bytes (0 without
// one); tests and monitoring use it to observe compaction.
func (r *Replica) JournalSize() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal == nil {
		return 0
	}
	return r.journal.Size()
}

// CloseJournal flushes and closes the journal (no-op without one).
func (r *Replica) CloseJournal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal == nil {
		return nil
	}
	err := r.journal.Close()
	r.journal = nil
	return err
}
