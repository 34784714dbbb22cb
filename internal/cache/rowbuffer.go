package cache

// DRAM row-buffer channel (§III-A2: "The enclave program's access pattern
// can also be leaked through the timing of ... DRAM row buffer"). Each
// DRAM bank keeps one row open; an access to the open row is fast (a
// row-buffer hit), while another row forces a precharge + activate (a
// conflict). An attacker who shares banks with the victim learns which
// DRAM row — a multi-KB region — the victim touched, the "DRAMA" attack's
// coarse channel.

// DRAMConfig sizes the simulated DRAM geometry and timing.
type DRAMConfig struct {
	Banks       int // banks the address space interleaves across
	RowBytes    int // row-buffer size per bank
	HitCycles   int // access latency when the row is open
	ConflictCyc int // precharge+activate+access latency
}

// DefaultDRAMConfig models a DDR4-like geometry: 16 banks, 8 KB rows.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{Banks: 16, RowBytes: 8192, HitCycles: 30, ConflictCyc: 120}
}

// DRAM is the bank/row-buffer state machine.
type DRAM struct {
	cfg     DRAMConfig
	openRow []int64 // per bank; -1 = closed
}

// NewDRAM builds a DRAM with all rows closed.
func NewDRAM(cfg DRAMConfig) *DRAM {
	open := make([]int64, cfg.Banks)
	for i := range open {
		open[i] = -1
	}
	return &DRAM{cfg: cfg, openRow: open}
}

// bankRow decomposes a byte address: consecutive rows interleave across
// banks (the usual XOR-free simplification).
func (d *DRAM) bankRow(addr int64) (bank int, row int64) {
	globalRow := addr / int64(d.cfg.RowBytes)
	return int(globalRow % int64(d.cfg.Banks)), globalRow / int64(d.cfg.Banks)
}

// Access touches addr and returns the latency (hit or conflict).
func (d *DRAM) Access(addr int64) int {
	bank, row := d.bankRow(addr)
	if d.openRow[bank] == row {
		return d.cfg.HitCycles
	}
	d.openRow[bank] = row
	return d.cfg.ConflictCyc
}

// RowBufferAttack recovers which DRAM row a victim lookup touched: the
// attacker opens a known row in every bank, lets the victim run, then
// re-touches its rows — the bank whose re-access conflicts is the bank the
// victim used, and timing a probe row in that bank identifies the victim's
// row. Resolution: RowBytes per bank, i.e. RowsPerDRAMRow table rows.
type RowBufferAttack struct {
	dram   *DRAM
	victim *Victim
}

// NewRowBufferAttack pairs a victim table layout with a DRAM.
func NewRowBufferAttack(v *Victim, d *DRAM) *RowBufferAttack {
	return &RowBufferAttack{dram: d, victim: v}
}

// victimAccess drives the DRAM with the byte addresses of a table lookup.
func (a *RowBufferAttack) victimAccess(idx int) {
	rowBytes := int64(a.victim.LinesPerRow * LineBytes)
	start := int64(a.victim.Base)*LineBytes + rowBytes*int64(idx)
	for off := int64(0); off < rowBytes; off += LineBytes {
		a.dram.Access(start + off)
	}
}

// RowsPerDRAMRow is the channel's resolution in table rows.
func (a *RowBufferAttack) RowsPerDRAMRow() int {
	r := a.dram.cfg.RowBytes / (a.victim.LinesPerRow * LineBytes)
	if r < 1 {
		return 1
	}
	return r
}

// Recover returns the coarse index window [lo, hi) the victim's secret
// lies in. For each candidate DRAM row it replays prime → victim → probe
// (each probe disturbs bank state, so a fresh round per candidate is
// required — exactly how repeated-measurement row-buffer attacks work).
// The window spans RowsPerDRAMRow table rows.
func (a *RowBufferAttack) Recover(secretIdx int) (lo, hi int) {
	tableBytes := a.victim.NumRows * a.victim.LinesPerRow * LineBytes
	nRows := (tableBytes + a.dram.cfg.RowBytes - 1) / a.dram.cfg.RowBytes
	attackerBase := int64(1) << 40
	for r := 0; r < nRows; r++ {
		// Prime: open attacker rows in every bank.
		for b := 0; b < a.dram.cfg.Banks; b++ {
			a.dram.Access(attackerBase + int64(b)*int64(a.dram.cfg.RowBytes))
		}
		a.victimAccess(secretIdx)
		// Probe this candidate: a row-buffer hit means the victim left
		// it open — this is the victim's DRAM row.
		addr := int64(a.victim.Base)*LineBytes + int64(r)*int64(a.dram.cfg.RowBytes)
		if lat := a.dram.Access(addr); lat == a.dram.cfg.HitCycles {
			per := a.RowsPerDRAMRow()
			lo = r * per
			hi = lo + per
			if hi > a.victim.NumRows {
				hi = a.victim.NumRows
			}
			return lo, hi
		}
	}
	return 0, a.victim.NumRows // nothing recovered
}
