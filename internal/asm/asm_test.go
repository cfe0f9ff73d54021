package asm_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mavr/internal/asm"
	"mavr/internal/avr"
)

func decode1(w uint16) avr.Instr    { return avr.Decode(w, 0) }
func decode2(w [2]uint16) avr.Instr { return avr.Decode(w[0], w[1]) }

func TestEncodeDecodeTwoRegister(t *testing.T) {
	tests := []struct {
		name string
		enc  func(d, r int) uint16
		op   avr.Op
	}{
		{"add", asm.ADD, avr.OpADD},
		{"adc", asm.ADC, avr.OpADC},
		{"sub", asm.SUB, avr.OpSUB},
		{"sbc", asm.SBC, avr.OpSBC},
		{"and", asm.AND, avr.OpAND},
		{"or", asm.OR, avr.OpOR},
		{"eor", asm.EOR, avr.OpEOR},
		{"mov", asm.MOV, avr.OpMOV},
		{"cp", asm.CP, avr.OpCP},
		{"cpc", asm.CPC, avr.OpCPC},
		{"cpse", asm.CPSE, avr.OpCPSE},
		{"mul", asm.MUL, avr.OpMUL},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := func(d, r uint8) bool {
				di, ri := int(d%32), int(r%32)
				in := decode1(tt.enc(di, ri))
				return in.Op == tt.op && int(in.D) == di && int(in.R) == ri
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestEncodeDecodeImmediates(t *testing.T) {
	tests := []struct {
		name string
		enc  func(d, k int) uint16
		op   avr.Op
	}{
		{"ldi", asm.LDI, avr.OpLDI},
		{"cpi", asm.CPI, avr.OpCPI},
		{"subi", asm.SUBI, avr.OpSUBI},
		{"sbci", asm.SBCI, avr.OpSBCI},
		{"ori", asm.ORI, avr.OpORI},
		{"andi", asm.ANDI, avr.OpANDI},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := func(d, k uint8) bool {
				di := 16 + int(d%16)
				in := decode1(tt.enc(di, int(k)))
				return in.Op == tt.op && int(in.D) == di && int(in.K) == int(k)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestEncodeDecodeDisplacement(t *testing.T) {
	f := func(d, q uint8) bool {
		di, qi := int(d%32), int(q%64)
		ldy := decode2([2]uint16{asm.LDDY(di, qi), 0})
		sty := decode2([2]uint16{asm.STDY(qi, di), 0})
		ldz := decode2([2]uint16{asm.LDDZ(di, qi), 0})
		stz := decode2([2]uint16{asm.STDZ(qi, di), 0})
		return ldy.Op == avr.OpLDDY && int(ldy.D) == di && int(ldy.Q) == qi &&
			sty.Op == avr.OpSTDY && int(sty.D) == di && int(sty.Q) == qi &&
			ldz.Op == avr.OpLDDZ && int(ldz.D) == di && int(ldz.Q) == qi &&
			stz.Op == avr.OpSTDZ && int(stz.D) == di && int(stz.Q) == qi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeJmpCall(t *testing.T) {
	f := func(target uint32) bool {
		tgt := target % avr.FlashWords
		j := decode2(asm.JMP(tgt))
		c := decode2(asm.CALL(tgt))
		return j.Op == avr.OpJMP && j.Target == tgt && j.Words == 2 &&
			c.Op == avr.OpCALL && c.Target == tgt && c.Words == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRelative(t *testing.T) {
	f := func(k int16) bool {
		kk := int(k % 2048)
		rj := decode1(asm.RJMP(kk))
		rc := decode1(asm.RCALL(kk))
		return rj.Op == avr.OpRJMP && int(rj.K) == kk &&
			rc.Op == avr.OpRCALL && int(rc.K) == kk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeBranches(t *testing.T) {
	f := func(s uint8, k int8) bool {
		si := int(s % 8)
		ki := int(k % 64)
		bs := decode1(asm.BRBS(si, ki))
		bc := decode1(asm.BRBC(si, ki))
		return bs.Op == avr.OpBRBS && int(bs.D) == si && int(bs.K) == ki &&
			bc.Op == avr.OpBRBC && int(bc.D) == si && int(bc.K) == ki
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeInOut(t *testing.T) {
	f := func(d, a uint8) bool {
		di, ai := int(d%32), int(a%64)
		i := decode1(asm.IN(di, ai))
		o := decode1(asm.OUT(ai, di))
		return i.Op == avr.OpIN && int(i.D) == di && int(i.A) == ai &&
			o.Op == avr.OpOUT && int(o.D) == di && int(o.A) == ai
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeLdsSts(t *testing.T) {
	f := func(d uint8, addr uint16) bool {
		di := int(d % 32)
		l := decode2(asm.LDS(di, addr))
		s := decode2(asm.STS(addr, di))
		return l.Op == avr.OpLDS && int(l.D) == di && l.Target == uint32(addr) && l.Words == 2 &&
			s.Op == avr.OpSTS && int(s.D) == di && s.Target == uint32(addr) && s.Words == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodePushPop(t *testing.T) {
	for d := 0; d < 32; d++ {
		if in := decode1(asm.PUSH(d)); in.Op != avr.OpPUSH || int(in.D) != d {
			t.Errorf("push r%d decoded as %v r%d", d, in.Op, in.D)
		}
		if in := decode1(asm.POP(d)); in.Op != avr.OpPOP || int(in.D) != d {
			t.Errorf("pop r%d decoded as %v r%d", d, in.Op, in.D)
		}
	}
}

func TestEncodeDecodeOneOperand(t *testing.T) {
	tests := []struct {
		enc func(int) uint16
		op  avr.Op
	}{
		{asm.COM, avr.OpCOM}, {asm.NEG, avr.OpNEG}, {asm.SWAP, avr.OpSWAP},
		{asm.INC, avr.OpINC}, {asm.DEC, avr.OpDEC}, {asm.ASR, avr.OpASR},
		{asm.LSR, avr.OpLSR}, {asm.ROR, avr.OpROR},
	}
	for _, tt := range tests {
		for d := 0; d < 32; d++ {
			if in := decode1(tt.enc(d)); in.Op != tt.op || int(in.D) != d {
				t.Errorf("%v r%d decoded as %v r%d", tt.op, d, in.Op, in.D)
			}
		}
	}
}

func TestEncodeDecodeZeroOperand(t *testing.T) {
	tests := map[uint16]avr.Op{
		asm.NOP: avr.OpNOP, asm.RET: avr.OpRET, asm.RETI: avr.OpRETI,
		asm.IJMP: avr.OpIJMP, asm.EIJMP: avr.OpEIJMP, asm.ICALL: avr.OpICALL,
		asm.EICALL: avr.OpEICALL, asm.SLEEP: avr.OpSLEEP, asm.BREAK: avr.OpBREAK,
		asm.WDR: avr.OpWDR, asm.LPM: avr.OpLPM, asm.ELPM: avr.OpELPM,
		asm.SPM: avr.OpSPM,
	}
	for w, op := range tests {
		if in := decode1(w); in.Op != op {
			t.Errorf("0x%04X decoded as %v, want %v", w, in.Op, op)
		}
	}
	// SEI/CLI are bset/bclr of the I flag.
	if in := decode1(asm.SEI); in.Op != avr.OpBSET || in.D != avr.FlagI {
		t.Errorf("sei decoded as %v %d", in.Op, in.D)
	}
	if in := decode1(asm.CLI); in.Op != avr.OpBCLR || in.D != avr.FlagI {
		t.Errorf("cli decoded as %v %d", in.Op, in.D)
	}
}

// The paper's Fig. 4 stk_move gadget must encode to the documented
// instruction sequence and round-trip through the disassembler.
func TestStkMoveGadgetRoundTrip(t *testing.T) {
	src := `
	gadget:
		out 0x3e, r29
		out 0x3f, r0
		out 0x3d, r28
		pop r28
		pop r29
		pop r16
		ret
	`
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []avr.Op{avr.OpOUT, avr.OpOUT, avr.OpOUT, avr.OpPOP, avr.OpPOP, avr.OpPOP, avr.OpRET}
	pc := uint32(0)
	for i, want := range wantOps {
		in := avr.DecodeAt(img, pc)
		if in.Op != want {
			t.Fatalf("instr %d: got %v, want %v", i, in.Op, want)
		}
		pc += uint32(in.Words)
	}
	dis := asm.Disassemble(img, 0, len(wantOps))
	for _, want := range []string{"out 0x3e, r29", "out 0x3d, r28", "pop r16", "ret"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

// The paper's Fig. 5 write_mem_gadget.
func TestWriteMemGadgetRoundTrip(t *testing.T) {
	src := `
	gadget:
		std Y+1, r5
		std Y+2, r6
		std Y+3, r7
		pop r29
		pop r28
		pop r17
		pop r16
		pop r15
		pop r14
		pop r13
		pop r12
		pop r11
		pop r10
		pop r9
		pop r8
		pop r7
		pop r6
		pop r5
		pop r4
		ret
	`
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	dis := asm.Disassemble(img, 0, 20)
	for _, want := range []string{"std Y+1, r5", "std Y+2, r6", "std Y+3, r7", "pop r4", "ret"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestBuilderLabelsAndFixups(t *testing.T) {
	b := asm.NewBuilder()
	b.JMP("main")
	b.Label("sub")
	b.Emit(asm.LDI(16, 1))
	b.Emit(asm.RET)
	b.Label("main")
	b.CALL("sub")
	b.RJMP("main")
	img, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	main, ok := b.LabelAddr("main")
	if !ok {
		t.Fatal("main label missing")
	}
	in := avr.DecodeAt(img, 0)
	if in.Op != avr.OpJMP || in.Target != main {
		t.Errorf("jmp decoded to %v target 0x%X, want jmp 0x%X", in.Op, in.Target, main)
	}
	callIn := avr.DecodeAt(img, main)
	sub, _ := b.LabelAddr("sub")
	if callIn.Op != avr.OpCALL || callIn.Target != sub {
		t.Errorf("call decoded to %v target 0x%X, want call 0x%X", callIn.Op, callIn.Target, sub)
	}
	rj := avr.DecodeAt(img, main+2)
	if rj.Op != avr.OpRJMP || int64(main+2)+1+int64(rj.K) != int64(main) {
		t.Errorf("rjmp back to main mis-encoded (K=%d)", rj.K)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := asm.NewBuilder()
	b.JMP("nowhere")
	if _, err := b.Assemble(); err == nil {
		t.Error("expected error for undefined label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("x")
	b.Label("x")
	if _, err := b.Assemble(); err == nil {
		t.Error("expected error for duplicate label")
	}
}

func TestBuilderBranchOutOfRange(t *testing.T) {
	b := asm.NewBuilder()
	b.BRBS(1, "far")
	for i := 0; i < 100; i++ {
		b.Emit(asm.NOP)
	}
	b.Label("far")
	if _, err := b.Assemble(); err == nil {
		t.Error("expected out-of-range error for 7-bit branch over 100 words")
	}
}

func TestBuilderDWLabel(t *testing.T) {
	b := asm.NewBuilder()
	b.Emit(asm.NOP)
	b.DWLabel("fn")
	b.Label("fn")
	b.Emit(asm.RET)
	img, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := b.LabelAddr("fn")
	got := uint16(img[2]) | uint16(img[3])<<8
	if uint32(got) != fn {
		t.Errorf("dw label = 0x%04X, want 0x%X", got, fn)
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"ldi r5, 3",                         // ldi needs r16..r31
		"adiw r23, 1",                       // adiw needs r24/26/28/30
		"ld r16, Q+1",                       // bad pointer
		"ldi r16",                           // missing operand
		"ldi r16, zzz",                      // bad number
		".org 0x2\nnop\nnop\nnop\n.org 0x1", // org backwards
	}
	for _, src := range cases {
		if _, err := asm.Assemble(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestAssembleOrgAndData(t *testing.T) {
	img, err := asm.Assemble(`
		nop
	.org 0x4
	data:
		.dw 0xBEEF
		.db 0x01, 0x02
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 0x4*2+4 {
		t.Fatalf("image length = %d", len(img))
	}
	if img[8] != 0xEF || img[9] != 0xBE {
		t.Errorf("dw mis-encoded: % X", img[8:10])
	}
	if img[10] != 0x01 || img[11] != 0x02 {
		t.Errorf("db mis-encoded: % X", img[10:12])
	}
}

// Fuzz-ish: decoding arbitrary words never panics and always yields a
// plausible word count.
func TestDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		w0 := uint16(rng.Intn(0x10000))
		in := avr.Decode(w0, uint16(rng.Intn(0x10000)))
		if in.Words != 1 && in.Words != 2 {
			t.Fatalf("decode(0x%04X) produced Words=%d", w0, in.Words)
		}
		if got := avr.InstrWords(w0); got != int(in.Words) && in.Op != avr.OpInvalid {
			t.Fatalf("InstrWords(0x%04X)=%d but decode says %d (%v)", w0, got, in.Words, in.Op)
		}
	}
}

// Executing any single random instruction on a fresh CPU must never
// panic (it may fault).
func TestExecNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		c := avr.New()
		img := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		if err := c.LoadFlash(img); err != nil {
			t.Fatal(err)
		}
		_ = c.Step()
	}
}
