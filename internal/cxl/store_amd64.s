#include "textflag.h"
#include "go_asm.h"

// func storeWord(p *uint64, v uint64)
TEXT ·storeWord(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ v+8(FP), BX
	MOVQ BX, 0(AX)
	RET

// func storeFast(h *Handle, a Addr, v uint64)
TEXT ·storeFast(SB), NOSPLIT, $0-24
	MOVQ h+0(FP), AX
	MOVQ a+8(FP), BX
	TESTQ BX, BX
	JEQ slow
	CMPQ BX, (Handle_words+8)(AX) // len(h.words)
	JAE slow
	MOVQ Handle_fence(AX), CX
	MOVQ 0(CX), CX // h.fence.Load(): an aligned load is atomic
	CMPQ CX, Handle_epoch(AX)
	JNE slow
	MOVQ Handle_words(AX), CX
	MOVQ v+16(FP), DX
	MOVQ DX, (CX)(BX*8)
	RET
slow:
	// The frame is untouched: the slow path takes over as if called.
	JMP ·storeSlowPath(SB)
