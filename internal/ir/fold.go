package ir

// foldSignExt and foldTrunc mirror internal/interp's signExt and truncTo, so
// that a pass reading a constant sees the value the interpreter would.

func foldSignExt(bits uint64, ty Type) int64 {
	switch ty {
	case I1:
		return int64(bits & 1)
	case I8:
		return int64(int8(bits))
	case I32:
		return int64(int32(bits))
	default:
		return int64(bits)
	}
}

func foldTrunc(v uint64, ty Type) uint64 {
	switch ty {
	case I1:
		return v & 1
	case I8:
		return v & 0xff
	case I32:
		return v & 0xffffffff
	default:
		return v
	}
}
