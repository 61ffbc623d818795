package qcc

import "fmt"

// AccessClass distinguishes who is touching the cache: the host CPU over
// the public datapaths (❶❷) or controller-internal hardware (datapath ❸
// and the pulse pipeline). The cache stores only public segments, so no
// access is refused and no accessor reads the class. It stays only
// because perfbench's replay passes it; it goes when that replay does.
type AccessClass uint8

// Access classes.
const (
	HostAccess AccessClass = iota
	HardwareAccess
)

// Cache is the storage model of a quantum controller cache instance. It
// holds the contents of .program, .measure and .regfile. It keeps only
// the geometry of .pulse and .slt: no program reads pulse samples, and
// SLT state lives in slt.Bank.
type Cache struct {
	cfg Config

	program [][]ProgramEntry // [qubit][entry]
	measure []uint64
	regfile []uint32
}

// NewCache allocates a cache with the given geometry.
func NewCache(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	c.program = make([][]ProgramEntry, cfg.NQubits)
	for q := 0; q < cfg.NQubits; q++ {
		c.program[q] = make([]ProgramEntry, cfg.ProgramEntries)
	}
	c.measure = make([]uint64, cfg.MeasureEntries)
	c.regfile = make([]uint32, cfg.RegfileEntries)
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// ReadProgram reads one program entry.
func (c *Cache) ReadProgram(q, idx int, who AccessClass) (ProgramEntry, error) {
	if err := c.bounds(SegProgram, q, idx); err != nil {
		return ProgramEntry{}, err
	}
	return c.program[q][idx], nil
}

// WriteProgram writes one program entry.
func (c *Cache) WriteProgram(q, idx int, e ProgramEntry, who AccessClass) error {
	if err := c.bounds(SegProgram, q, idx); err != nil {
		return err
	}
	c.program[q][idx] = e
	return nil
}

// ReadMeasure reads a measurement word.
func (c *Cache) ReadMeasure(idx int, who AccessClass) (uint64, error) {
	if err := c.bounds(SegMeasure, 0, idx); err != nil {
		return 0, err
	}
	return c.measure[idx], nil
}

// WriteMeasure writes a measurement word.
func (c *Cache) WriteMeasure(idx int, v uint64, who AccessClass) error {
	if err := c.bounds(SegMeasure, 0, idx); err != nil {
		return err
	}
	c.measure[idx] = v
	return nil
}

// ReadReg reads a register-file word.
func (c *Cache) ReadReg(idx int, who AccessClass) (uint32, error) {
	if err := c.bounds(SegRegfile, 0, idx); err != nil {
		return 0, err
	}
	return c.regfile[idx], nil
}

// WriteReg writes a register-file word — the target of q_update.
func (c *Cache) WriteReg(idx int, v uint32, who AccessClass) error {
	if err := c.bounds(SegRegfile, 0, idx); err != nil {
		return err
	}
	c.regfile[idx] = v
	return nil
}

func (c *Cache) bounds(s Segment, q, idx int) error {
	switch s {
	case SegProgram:
		if q < 0 || q >= c.cfg.NQubits || idx < 0 || idx >= c.cfg.ProgramEntries {
			return fmt.Errorf("qcc: program[%d][%d] out of range", q, idx)
		}
	case SegMeasure:
		if idx < 0 || idx >= c.cfg.MeasureEntries {
			return fmt.Errorf("qcc: measure[%d] out of range", idx)
		}
	case SegRegfile:
		if idx < 0 || idx >= c.cfg.RegfileEntries {
			return fmt.Errorf("qcc: regfile[%d] out of range", idx)
		}
	}
	return nil
}
