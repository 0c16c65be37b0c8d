package db

import (
	"fmt"
	"sync"
	"testing"

	"github.com/sampleclean/svc/internal/relation"
)

func vSchema() relation.Schema {
	return relation.NewSchema([]relation.Column{
		{Name: "id", Type: relation.KindInt},
		{Name: "x", Type: relation.KindInt},
	}, "id")
}

func vRow(id, x int) relation.Row {
	return relation.Row{relation.Int(int64(id)), relation.Int(int64(x))}
}

func buildVDB(t *testing.T, n int) (*Database, *Table) {
	t.Helper()
	d := New()
	tbl := d.MustCreate("T", vSchema())
	for i := 0; i < n; i++ {
		tbl.MustInsert(vRow(i, i))
	}
	return d, tbl
}

// sumX computes the sum of x over a relation (tiny aggregate for checks).
func sumX(r *relation.Relation) int64 {
	var s int64
	for _, row := range r.Rows() {
		s += row[1].AsInt()
	}
	return s
}

func TestPinIsolatesStagedUpdates(t *testing.T) {
	d, tbl := buildVDB(t, 10)
	pin := d.Pin()
	if pin.HasPending() {
		t.Fatal("fresh pin should have no pending deltas")
	}
	if err := tbl.StageInsert(vRow(100, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.StageUpdate(vRow(3, -3)); err != nil {
		t.Fatal(err)
	}
	// The old pin must not see the new deltas.
	if pin.Insertions("T").Len() != 0 || pin.Deletions("T").Len() != 0 {
		t.Fatal("pinned version sees post-pin staging")
	}
	// A fresh pin does, at a later epoch.
	pin2 := d.Pin()
	if pin2.Epoch() <= pin.Epoch() {
		t.Fatalf("epoch must advance: %d -> %d", pin.Epoch(), pin2.Epoch())
	}
	if pin2.Insertions("T").Len() != 2 || pin2.Deletions("T").Len() != 1 {
		t.Fatalf("new pin deltas: ins=%d del=%d, want 2/1",
			pin2.Insertions("T").Len(), pin2.Deletions("T").Len())
	}
	// Pinning twice with no writes returns the identical version.
	if d.Pin() != pin2 {
		t.Fatal("clean re-pin should be the same version")
	}
}

func TestApplyVersionRetiresExactlyPinnedDeltas(t *testing.T) {
	d, tbl := buildVDB(t, 5)
	if err := tbl.StageInsert(vRow(10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.StageDelete(relation.Int(0)); err != nil {
		t.Fatal(err)
	}
	pin := d.Pin()

	// Post-pin activity: another insert.
	if err := tbl.StageInsert(vRow(11, 11)); err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyVersion(pin, nil); err != nil {
		t.Fatal(err)
	}
	// Base: 5 - 1 deleted + 1 applied insert = 5 rows.
	if tbl.Len() != 5 {
		t.Fatalf("base has %d rows, want 5", tbl.Len())
	}
	if _, ok := tbl.Rows().Get(relation.Int(10)); !ok {
		t.Fatal("applied insert missing from base")
	}
	if _, ok := tbl.Rows().Get(relation.Int(0)); ok {
		t.Fatal("applied delete still in base")
	}
	// Pending: only the post-pin insert.
	ins, del := tbl.PendingSize()
	if ins != 1 || del != 0 {
		t.Fatalf("pending ins=%d del=%d, want 1/0", ins, del)
	}
	if _, ok := tbl.Insertions().Get(relation.Int(11)); !ok {
		t.Fatal("post-pin insert lost")
	}
	// The published version reflects all of it atomically.
	pin2 := d.Pin()
	if pin2.AppliedSeq() != pin.AppliedSeq()+1 {
		t.Fatalf("applied seq %d, want %d", pin2.AppliedSeq(), pin.AppliedSeq()+1)
	}
	if pin2.Base("T").Len() != 5 || pin2.Insertions("T").Len() != 1 {
		t.Fatal("published version inconsistent with live state")
	}
}

// TestApplyVersionRebasesStraddlingUpdate is the hard case: a key updated
// before the pin and updated AGAIN between pin and apply. The applied
// (older) value must land in the base, and the pending (newer) update must
// keep both its ΔR row and a ∇R record of the just-applied row, so the
// next maintenance cycle subtracts the applied contribution.
func TestApplyVersionRebasesStraddlingUpdate(t *testing.T) {
	d, tbl := buildVDB(t, 5)
	if err := tbl.StageUpdate(vRow(2, 20)); err != nil {
		t.Fatal(err)
	}
	pin := d.Pin()
	if err := tbl.StageUpdate(vRow(2, 200)); err != nil { // straddles the apply
		t.Fatal(err)
	}
	if err := d.ApplyVersion(pin, nil); err != nil {
		t.Fatal(err)
	}
	// Base holds the applied (pre-pin) value.
	row, ok := tbl.Rows().Get(relation.Int(2))
	if !ok || row[1].AsInt() != 20 {
		t.Fatalf("base row = %v, want x=20", row)
	}
	// Pending: the newer update with the applied row as its old version.
	insRow, ok := tbl.Insertions().Get(relation.Int(2))
	if !ok || insRow[1].AsInt() != 200 {
		t.Fatalf("pending ΔR row = %v, want x=200", insRow)
	}
	delRow, ok := tbl.Deletions().Get(relation.Int(2))
	if !ok || delRow[1].AsInt() != 20 {
		t.Fatalf("pending ∇R row = %v, want the applied x=20", delRow)
	}
	// Fold the rest: the final state is the newest value, deltas empty.
	if err := d.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	row, _ = tbl.Rows().Get(relation.Int(2))
	if row[1].AsInt() != 200 {
		t.Fatalf("final row = %v, want x=200", row)
	}
	if d.HasPending() {
		t.Fatal("deltas should be empty")
	}
	if sumX(tbl.Rows()) != 0+1+200+3+4 {
		t.Fatalf("final sum = %d", sumX(tbl.Rows()))
	}
}

// TestApplyVersionRebasesStraddlingDelete: an insert applied at the
// boundary that was un-staged (deleted) after the pin must come back out
// at the next maintenance cycle.
func TestApplyVersionRebasesStraddlingDelete(t *testing.T) {
	d, tbl := buildVDB(t, 3)
	if err := tbl.StageInsert(vRow(9, 9)); err != nil {
		t.Fatal(err)
	}
	pin := d.Pin()
	if err := tbl.StageDelete(relation.Int(9)); err != nil { // un-stages the pending insert
		t.Fatal(err)
	}
	if err := d.ApplyVersion(pin, nil); err != nil {
		t.Fatal(err)
	}
	// The applied insert is in the base, with a pending deletion recorded.
	if _, ok := tbl.Rows().Get(relation.Int(9)); !ok {
		t.Fatal("applied insert missing")
	}
	delRow, ok := tbl.Deletions().Get(relation.Int(9))
	if !ok || delRow[1].AsInt() != 9 {
		t.Fatalf("pending ∇R row = %v, want the applied row", delRow)
	}
	if err := d.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Rows().Get(relation.Int(9)); ok {
		t.Fatal("row should be deleted after the second boundary")
	}
}

func TestAttachmentsRideAlong(t *testing.T) {
	d, tbl := buildVDB(t, 3)
	d.SetAttachment("k", "v1")
	if got := d.Pin().Attachment("k"); got != "v1" {
		t.Fatalf("attachment = %v", got)
	}
	// Staging republishes; the attachment persists.
	if err := tbl.StageInsert(vRow(7, 7)); err != nil {
		t.Fatal(err)
	}
	if got := d.Pin().Attachment("k"); got != "v1" {
		t.Fatalf("attachment after staging = %v", got)
	}
	// ApplyVersion swaps attachments atomically with the fold.
	pin := d.Pin()
	if err := d.ApplyVersion(pin, map[string]any{"k": "v2"}); err != nil {
		t.Fatal(err)
	}
	after := d.Pin()
	if got := after.Attachment("k"); got != "v2" {
		t.Fatalf("attachment after apply = %v", got)
	}
	// The old pinned version still carries the old attachment.
	if got := pin.Attachment("k"); got != "v1" {
		t.Fatalf("old version attachment = %v", got)
	}
	// Removal.
	d.SetAttachment("k", nil)
	if got := d.Pin().Attachment("k"); got != nil {
		t.Fatalf("removed attachment = %v", got)
	}
}

// TestConcurrentPinAndStage hammers Pin from readers while writers stage
// and apply; run under -race. Readers assert version-internal consistency:
// the pinned base plus pinned deltas always describe a state whose sum
// matches one of the states the writer actually published.
func TestConcurrentPinAndStage(t *testing.T) {
	d, tbl := buildVDB(t, 50)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: stage updates, periodically apply
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 400; i++ {
			if i%2 == 0 {
				_ = tbl.StageInsert(vRow(1000+i, 1))
			} else {
				_ = tbl.StageUpdate(vRow(i%50, 0))
			}
			if i%50 == 49 {
				pin := d.Pin()
				if err := d.ApplyVersion(pin, nil); err != nil {
					panic(err)
				}
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := d.Pin()
				if pin.Epoch() < lastEpoch {
					panic("epoch went backwards")
				}
				lastEpoch = pin.Epoch()
				// Consistency: every ∇R row names a key present in base;
				// scanning the pinned relations must never tear.
				keyIdx := pin.Base("T").Schema().Key()
				for _, row := range pin.Deletions("T").Rows() {
					if _, ok := pin.Base("T").GetByEncodedKey(row.KeyOf(keyIdx)); !ok {
						panic("pinned ∇R row missing from pinned base")
					}
				}
				_ = sumX(pin.Base("T"))
			}
		}()
	}
	wg.Wait()
}

// TestApplyVersionAbortIsAtomic: a direct base Insert after the pin must
// make ApplyVersion fail WITHOUT mutating anything — not even tables
// earlier in creation order than the conflicting one — so the caller can
// re-pin and retry with no deltas lost.
func TestApplyVersionAbortIsAtomic(t *testing.T) {
	d := New()
	ta := d.MustCreate("A", vSchema())
	tb := d.MustCreate("B", vSchema())
	for i := 0; i < 4; i++ {
		ta.MustInsert(vRow(i, i))
		tb.MustInsert(vRow(i, i))
	}
	if err := ta.StageInsert(vRow(10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tb.StageInsert(vRow(20, 20)); err != nil {
		t.Fatal(err)
	}
	pin := d.Pin()
	// Direct (unstaged) insert into B after the pin: the B swap must be
	// rejected, and A must NOT have been swapped/retired first.
	tb.MustInsert(vRow(99, 99))
	if err := d.ApplyVersion(pin, nil); err == nil {
		t.Fatal("apply over a direct-insert conflict should fail")
	}
	if ta.Len() != 4 {
		t.Fatalf("A base has %d rows; the aborted apply mutated it", ta.Len())
	}
	ins, _ := ta.PendingSize()
	if ins != 1 {
		t.Fatalf("A pending ins=%d; the aborted apply retired its deltas", ins)
	}
	// Retry with a fresh pin: everything lands, nothing lost.
	if err := d.ApplyVersion(d.Pin(), nil); err != nil {
		t.Fatal(err)
	}
	if ta.Len() != 5 || tb.Len() != 6 {
		t.Fatalf("after retry: A=%d B=%d rows, want 5/6", ta.Len(), tb.Len())
	}
	if d.HasPending() {
		t.Fatal("retry should have applied all deltas")
	}
}

// TestApplyVersionStalePinRejected: a pin from before another maintenance
// boundary must be rejected instead of re-based (re-folding it would
// mis-record already-applied rows as pending deletions).
func TestApplyVersionStalePinRejected(t *testing.T) {
	d, tbl := buildVDB(t, 4)
	if err := tbl.StageInsert(vRow(7, 7)); err != nil {
		t.Fatal(err)
	}
	stale := d.Pin()
	if err := d.ApplyDeltas(); err != nil { // intervening boundary
		t.Fatal(err)
	}
	if err := d.ApplyVersion(stale, nil); err == nil {
		t.Fatal("superseded pin should be rejected")
	}
	// The applied insert must still be alive after the next boundary.
	if err := d.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Rows().Get(relation.Int(7)); !ok {
		t.Fatal("applied insert was deleted by a stale re-base")
	}
}

// TestApplyVersionTablesPartialFold: a partial boundary folds only the
// named tables; every other table keeps its base AND its pending deltas,
// so a view deferred by a refresh scheduler never has its change set
// retired out from under it.
func TestApplyVersionTablesPartialFold(t *testing.T) {
	d := New()
	ta := d.MustCreate("A", vSchema())
	tb := d.MustCreate("B", vSchema())
	for i := 0; i < 4; i++ {
		ta.MustInsert(vRow(i, i))
		tb.MustInsert(vRow(i, 10*i))
	}
	if err := ta.StageInsert(vRow(100, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ta.StageDelete(relation.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := tb.StageInsert(vRow(200, 200)); err != nil {
		t.Fatal(err)
	}
	if err := tb.StageUpdate(vRow(1, -1)); err != nil {
		t.Fatal(err)
	}
	pin := d.Pin()

	if err := d.ApplyVersionTables(pin, nil, []string{"A"}); err != nil {
		t.Fatal(err)
	}
	// A folded: base updated, deltas retired.
	if ta.Len() != 4 {
		t.Fatalf("A has %d rows, want 4", ta.Len())
	}
	if _, ok := ta.Rows().Get(relation.Int(100)); !ok {
		t.Fatal("A's applied insert missing from base")
	}
	if ins, del := ta.PendingSize(); ins != 0 || del != 0 {
		t.Fatalf("A pending ins=%d del=%d, want 0/0", ins, del)
	}
	// B untouched: base as loaded, deltas still pending verbatim.
	if tb.Len() != 4 {
		t.Fatalf("B has %d rows, want 4", tb.Len())
	}
	if _, ok := tb.Rows().Get(relation.Int(200)); ok {
		t.Fatal("B's pending insert leaked into base")
	}
	if ins, del := tb.PendingSize(); ins != 2 || del != 1 {
		t.Fatalf("B pending ins=%d del=%d, want 2/1", ins, del)
	}
	// The partial boundary is a real boundary: old pins are superseded.
	if err := d.ApplyVersion(pin, nil); err == nil {
		t.Fatal("pin from before the partial boundary should be superseded")
	}
	// B's own boundary still lands its full change set.
	if err := d.ApplyVersion(d.Pin(), nil); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 5 {
		t.Fatalf("after B's fold: %d rows, want 5", tb.Len())
	}
	if got, ok := tb.Rows().Get(relation.Int(1)); !ok || got[1].AsInt() != -1 {
		t.Fatalf("B's staged update lost: got %v ok=%v", got, ok)
	}
	if d.HasPending() {
		t.Fatal("all deltas should be folded now")
	}
}

// TestSchemaReadableDuringFold: a reader asks a table for its schema (as
// the serving layer's ingest handler does, without the catalog lock)
// while maintenance boundaries fold staged rows into the base. Under
// -race this fails if Schema reads the base the fold swaps.
func TestSchemaReadableDuringFold(t *testing.T) {
	d, tbl := buildVDB(t, 10)
	want := tbl.Schema()
	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if s := tbl.Schema(); !s.Equal(want) {
				done <- fmt.Errorf("schema changed to %s", s)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if err := tbl.StageInsert(vRow(100+i, i)); err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyVersion(d.Pin(), nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 210 {
		t.Fatalf("base has %d rows after the folds, want 210", tbl.Len())
	}
}
