package avr

import "fmt"

// Memory geometry of the ATmega2560 (see the paper's Fig. 1).
const (
	// FlashSize is the program memory size in bytes (256 KB).
	FlashSize = 256 * 1024
	// FlashWords is the program memory size in 16-bit words. The program
	// counter is a word address in [0, FlashWords).
	FlashWords = FlashSize / 2

	// RegFileBase is the data-space address of register r0. Registers
	// r0..r31 are memory mapped at 0x00..0x1F.
	RegFileBase = 0x0000
	// IOBase is the data-space address of I/O register 0 (data address =
	// I/O address + 0x20 for in/out instructions).
	IOBase = 0x0020
	// ExtIOBase is the first extended I/O address (reachable only via
	// lds/sts and ld/st).
	ExtIOBase = 0x0060
	// SRAMBase is the first address of internal SRAM.
	SRAMBase = 0x0200
	// SRAMSize is the internal SRAM size in bytes (8 KB).
	SRAMSize = 8 * 1024
	// DataSpaceSize is the size of the linear data address space.
	DataSpaceSize = SRAMBase + SRAMSize // 0x2200

	// EEPROMSize is the EEPROM size in bytes (4 KB).
	EEPROMSize = 4 * 1024
)

// I/O-space addresses (add IOBase for the data-space address).
const (
	IOAddrRAMPZ = 0x3B // extended Z pointer for ELPM
	IOAddrEIND  = 0x3C // extended indirect register for EICALL/EIJMP
	IOAddrSPL   = 0x3D // stack pointer low byte
	IOAddrSPH   = 0x3E // stack pointer high byte
	IOAddrSREG  = 0x3F // status register
)

// Data-space addresses of the stack pointer and status register.
const (
	AddrSPL  = IOBase + IOAddrSPL  // 0x5D
	AddrSPH  = IOBase + IOAddrSPH  // 0x5E
	AddrSREG = IOBase + IOAddrSREG // 0x5F
)

// SREG flag bit positions.
const (
	FlagC = iota // carry
	FlagZ        // zero
	FlagN        // negative
	FlagV        // two's complement overflow
	FlagS        // sign (N xor V)
	FlagH        // half carry
	FlagT        // bit copy storage
	FlagI        // global interrupt enable
)

// X, Y and Z pointer register pairs.
const (
	RegXL = 26
	RegXH = 27
	RegYL = 28
	RegYH = 29
	RegZL = 30
	RegZH = 31
)

// MemoryRegion describes one region of the ATmega2560 address space. The
// set of regions is exported so tools (mavr-bench -only fig1) can render the
// paper's memory-map figure from the same constants the simulator uses.
type MemoryRegion struct {
	Name  string
	Space string // "program" or "data" or "eeprom"
	Start uint32
	Size  uint32
}

// MemoryMap returns the ATmega2560 memory regions in ascending address
// order per space.
func MemoryMap() []MemoryRegion {
	return []MemoryRegion{
		{Name: "flash (program, execute-only)", Space: "program", Start: 0, Size: FlashSize},
		{Name: "register file r0-r31", Space: "data", Start: RegFileBase, Size: 32},
		{Name: "I/O registers", Space: "data", Start: IOBase, Size: ExtIOBase - IOBase},
		{Name: "extended I/O", Space: "data", Start: ExtIOBase, Size: SRAMBase - ExtIOBase},
		{Name: "internal SRAM", Space: "data", Start: SRAMBase, Size: SRAMSize},
		{Name: "EEPROM (persistent config)", Space: "eeprom", Start: 0, Size: EEPROMSize},
	}
}

// FormatMemoryMap renders the memory map as a small text diagram
// reproducing the content of the paper's Fig. 1.
func FormatMemoryMap() string {
	s := "ATmega2560 memories (Harvard architecture; data space is not executable)\n"
	for _, r := range MemoryMap() {
		s += fmt.Sprintf("  %-7s 0x%05X-0x%05X  %s\n", r.Space, r.Start, r.Start+r.Size-1, r.Name)
	}
	return s
}
