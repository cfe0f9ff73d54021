// Package firmware synthesizes autopilot applications for the simulated
// ATmega2560. The MAVR paper evaluates on ArduPlane 2.7.4, ArduCopter
// and ArduRover built with a custom GCC 4.5.4 toolchain; those sources
// cannot be compiled here, so this package generates AVR machine code
// with the same structural properties the attacks and the defense
// depend on:
//
//   - the paper's function counts (Table I: 917 / 1030 / 800 symbols),
//   - the paper's code sizes (Table III), reached by deterministic body
//     synthesis plus a flash-resident calibration table,
//   - an interrupt vector table, a low-flash dispatch-stub region,
//     data-section function-pointer tables (scheduler tasks),
//   - a MAVLink receive loop with the injected length-unchecked
//     PARAM_SET handler (the paper's §IV-B vulnerability),
//   - the exact stk_move and write_mem_gadget instruction sequences of
//     Figs. 4 and 5, plus many naturally occurring frame-pointer
//     epilogues that yield further gadgets,
//   - two toolchain modes: Stock (GCC -mcall-prologues + linker
//     relaxation) and MAVR (-mno-call-prologues --no-relax), so that
//     §VI-B1's requirement — only the latter is safely randomizable —
//     is demonstrable.
package firmware

import (
	"fmt"
	"os"

	"mavr/internal/elfobj"
)

// ToolchainMode selects the code-generation style (paper §VI-B1).
type ToolchainMode int

const (
	// ModeMAVR models the paper's custom toolchain:
	// -mno-call-prologues and --no-relax force inline register
	// save/restore and long-form call/jmp, making every control
	// transfer patchable after function blocks move.
	ModeMAVR ToolchainMode = iota + 1
	// ModeStock models the default toolchain: shared call-prologue
	// blocks reached with LDI-encoded return addresses, and relaxed
	// (rcall/rjmp) short calls. Smaller or larger by a fraction of a
	// percent, but not safely randomizable.
	ModeStock
)

func (m ToolchainMode) String() string {
	if m == ModeStock {
		return "stock"
	}
	return "mavr"
}

// AppSpec describes one synthetic autopilot application.
type AppSpec struct {
	// Name of the application (arduplane, arducopter, ardurover, testapp).
	Name string
	// Functions is the number of function symbols (Table I).
	Functions int
	// TargetSize is the flash image size in bytes to calibrate to in
	// ModeMAVR (Table III, "MAVR code size"). Zero disables calibration.
	TargetSize int
	// TargetSizeStock is the ModeStock calibration target (Table III,
	// "stock code size"). Zero disables calibration.
	TargetSizeStock int
	// Seed makes generation deterministic.
	Seed int64
	// Vulnerable injects the length-unchecked PARAM_SET handler
	// (paper §IV-B). When false the handler clamps the copy length.
	Vulnerable bool
	// DirectPointerTable adds a data-section table of raw 16-bit
	// function word addresses (in addition to the stub-based scheduler
	// table). Only valid for images that stay below 128KB.
	DirectPointerTable bool
	// Bootloader includes the prototype's fixed-location serial
	// bootloader code in the top flash section (§VI-B4). Its gadgets
	// survive randomization; a production system would use hardware ISP
	// instead (Bootloader false).
	Bootloader bool
	// StackCanaries hardens handle_param_set with a stack canary — the
	// runtime-check alternative §IX argues the APM cannot afford. Used
	// by the canary-overhead ablation.
	StackCanaries bool
}

// The paper's three evaluation applications (Tables I-III) plus a small
// test application used to develop the stealthy attack (§IV, §VII-A).
func Arduplane() AppSpec {
	return AppSpec{
		Name: "arduplane", Functions: 917,
		TargetSize: 221294, TargetSizeStock: 221608,
		Seed: 0xA9, Vulnerable: true, Bootloader: true,
	}
}

// Arducopter returns the ArduCopter profile.
func Arducopter() AppSpec {
	return AppSpec{
		Name: "arducopter", Functions: 1030,
		TargetSize: 244292, TargetSizeStock: 244532,
		Seed: 0xAC, Vulnerable: true, Bootloader: true,
	}
}

// Ardurover returns the ArduRover profile.
func Ardurover() AppSpec {
	return AppSpec{
		Name: "ardurover", Functions: 800,
		TargetSize: 177556, TargetSizeStock: 177870,
		Seed: 0xAB, Vulnerable: true, Bootloader: true,
	}
}

// TestApp returns a small application (fits below 128KB) used by unit
// tests and by the attack-development examples; it enables the direct
// function-pointer table so both pointer-patching paths are exercised.
func TestApp() AppSpec {
	return AppSpec{
		Name: "testapp", Functions: 60,
		Seed: 0x7E57, Vulnerable: true, Bootloader: true,
		DirectPointerTable: true,
	}
}

// Profiles returns the three paper applications in Table I order.
func Profiles() []AppSpec {
	return []AppSpec{Arduplane(), Arducopter(), Ardurover()}
}

// ProfileByName returns the built-in profile with the given name: the
// test application or one of the three paper applications.
func ProfileByName(name string) (AppSpec, error) {
	for _, p := range append(Profiles(), TestApp()) {
		if p.Name == name {
			return p, nil
		}
	}
	return AppSpec{}, fmt.Errorf("unknown application %q", name)
}

// LoadELF returns the ELF file at path or, when path is empty, the
// named profile generated in MAVR mode: the -elf/-app input of the
// command-line tools.
func LoadELF(path, app string) (*elfobj.File, error) {
	if path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return elfobj.Parse(raw)
	}
	spec, err := ProfileByName(app)
	if err != nil {
		return nil, err
	}
	img, err := Generate(spec, ModeMAVR)
	if err != nil {
		return nil, err
	}
	return img.ELF, nil
}
