package qcc

// ProgramEntry is one 65-bit .program line (Table 2):
//
//	type (4b) | reg_flag (1b) | data (27b) | status (3b) | qaddr (30b)
//
// Type is the gate kind. When RegFlag is set, Data holds a .regfile index
// and the angle is fetched indirectly (the hook for incremental
// compilation: q_update rewrites the register, never the program). When
// clear, Data holds the quantized angle immediate. Status says whether
// QAddr — the .pulse location of this gate's generated pulse — is valid.
type ProgramEntry struct {
	Type    uint8  // 4 bits
	RegFlag bool   // 1 bit
	Data    uint32 // 27 bits
	Status  uint8  // 3 bits
	QAddr   uint32 // 30 bits
}

// Status field values.
const (
	StatusInvalid uint8 = 0 // QAddr not yet assigned; SLT lookup required
	StatusValid   uint8 = 1 // QAddr points at a generated pulse
	StatusPending uint8 = 2 // pulse generation in flight
)

// Field limits of the data and qaddr fields.
const (
	MaxEntryData  = 1<<27 - 1
	MaxEntryQAddr = 1<<30 - 1
)
