#include "textflag.h"

// func storeWord(p *uint64, v uint64)
TEXT ·storeWord(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ v+8(FP), BX
	MOVQ BX, 0(AX)
	RET
