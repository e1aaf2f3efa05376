package interp

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/vm/value"
)

// binFn applies one binary operator. The tables below are indexed by the
// operator lowering resolved (ir.Instr.Oper), so no executor dispatches
// on the spelling at run time.
type binFn func(a, b value.Value) (value.Value, error)

// unFn applies one unary operator.
type unFn func(a value.Value) (value.Value, error)

var binOps = [ir.NumOpers]binFn{
	ir.OperAdd: evalAdd,
	ir.OperSub: evalSub,
	ir.OperMul: evalMul,
	ir.OperDiv: evalDiv,
	ir.OperMod: evalMod,
	ir.OperAnd: evalAnd,
	ir.OperOr:  evalOr,
	ir.OperXor: evalXor,
	ir.OperShl: evalShl,
	ir.OperShr: evalShr,
	ir.OperEq:  evalEq,
	ir.OperNe:  evalNe,
	ir.OperLt:  evalLt,
	ir.OperLe:  evalLe,
	ir.OperGt:  evalGt,
	ir.OperGe:  evalGe,
}

var unOps = [ir.NumOpers]unFn{
	ir.OperNot: evalNot,
	ir.OperNeg: evalNeg,
}

// EvalBinInstr applies the resolved operator of OpBin instruction in.
// The type checker guarantees operand types, so unexpected combinations
// indicate compiler bugs and return errors rather than panicking.
func EvalBinInstr(in *ir.Instr, a, b value.Value) (value.Value, error) {
	if f := binOps[in.Oper]; f != nil {
		return f(a, b)
	}
	return value.Value{}, invalidBin(in.BinOp, a)
}

func invalidBin(op string, a value.Value) error {
	return fmt.Errorf("invalid binary op %q on %s", op, a.T)
}

func evalAdd(a, b value.Value) (value.Value, error) {
	switch a.T {
	case ast.TInt:
		return value.Int(a.I + b.I), nil
	case ast.TFloat:
		return value.Float(a.F + b.F), nil
	case ast.TString:
		return value.Str(a.S + b.S), nil
	}
	return value.Value{}, invalidBin("+", a)
}

func evalSub(a, b value.Value) (value.Value, error) {
	switch a.T {
	case ast.TInt:
		return value.Int(a.I - b.I), nil
	case ast.TFloat:
		return value.Float(a.F - b.F), nil
	}
	return value.Value{}, invalidBin("-", a)
}

func evalMul(a, b value.Value) (value.Value, error) {
	switch a.T {
	case ast.TInt:
		return value.Int(a.I * b.I), nil
	case ast.TFloat:
		return value.Float(a.F * b.F), nil
	}
	return value.Value{}, invalidBin("*", a)
}

func evalDiv(a, b value.Value) (value.Value, error) {
	switch a.T {
	case ast.TInt:
		if b.I == 0 {
			return value.Value{}, fmt.Errorf("integer division by zero")
		}
		return value.Int(a.I / b.I), nil
	case ast.TFloat:
		return value.Float(a.F / b.F), nil
	}
	return value.Value{}, invalidBin("/", a)
}

func evalMod(a, b value.Value) (value.Value, error) {
	if a.T == ast.TInt {
		if b.I == 0 {
			return value.Value{}, fmt.Errorf("integer modulo by zero")
		}
		return value.Int(a.I % b.I), nil
	}
	return value.Value{}, invalidBin("%", a)
}

func evalAnd(a, b value.Value) (value.Value, error) {
	if a.T == ast.TInt {
		return value.Int(a.I & b.I), nil
	}
	return value.Value{}, invalidBin("&", a)
}

func evalOr(a, b value.Value) (value.Value, error) {
	if a.T == ast.TInt {
		return value.Int(a.I | b.I), nil
	}
	return value.Value{}, invalidBin("|", a)
}

func evalXor(a, b value.Value) (value.Value, error) {
	if a.T == ast.TInt {
		return value.Int(a.I ^ b.I), nil
	}
	return value.Value{}, invalidBin("^", a)
}

func evalShl(a, b value.Value) (value.Value, error) {
	if a.T == ast.TInt {
		if b.I < 0 || b.I > 63 {
			return value.Value{}, fmt.Errorf("shift amount %d out of range", b.I)
		}
		return value.Int(a.I << uint(b.I)), nil
	}
	return value.Value{}, invalidBin("<<", a)
}

func evalShr(a, b value.Value) (value.Value, error) {
	if a.T == ast.TInt {
		if b.I < 0 || b.I > 63 {
			return value.Value{}, fmt.Errorf("shift amount %d out of range", b.I)
		}
		return value.Int(a.I >> uint(b.I)), nil
	}
	return value.Value{}, invalidBin(">>", a)
}

func evalEq(a, b value.Value) (value.Value, error) {
	return value.Bool(a.Equal(b)), nil
}

func evalNe(a, b value.Value) (value.Value, error) {
	return value.Bool(!a.Equal(b)), nil
}

func evalLt(a, b value.Value) (value.Value, error) {
	return compare(a, b, func(c int) bool { return c < 0 })
}

func evalLe(a, b value.Value) (value.Value, error) {
	return compare(a, b, func(c int) bool { return c <= 0 })
}

func evalGt(a, b value.Value) (value.Value, error) {
	return compare(a, b, func(c int) bool { return c > 0 })
}

func evalGe(a, b value.Value) (value.Value, error) {
	return compare(a, b, func(c int) bool { return c >= 0 })
}

func compare(a, b value.Value, ok func(int) bool) (value.Value, error) {
	var c int
	switch a.T {
	case ast.TInt:
		switch {
		case a.I < b.I:
			c = -1
		case a.I > b.I:
			c = 1
		}
	case ast.TFloat:
		switch {
		case a.F < b.F:
			c = -1
		case a.F > b.F:
			c = 1
		}
	case ast.TString:
		switch {
		case a.S < b.S:
			c = -1
		case a.S > b.S:
			c = 1
		}
	default:
		return value.Value{}, fmt.Errorf("ordered comparison on %s", a.T)
	}
	return value.Bool(ok(c)), nil
}

// EvalUnInstr applies the resolved operator of OpUn instruction in.
func EvalUnInstr(in *ir.Instr, a value.Value) (value.Value, error) {
	if f := unOps[in.Oper]; f != nil {
		return f(a)
	}
	return value.Value{}, invalidUn(in.BinOp, a)
}

func invalidUn(op string, a value.Value) error {
	return fmt.Errorf("invalid unary op %q on %s", op, a.T)
}

func evalNot(a value.Value) (value.Value, error) {
	if a.T == ast.TBool {
		return value.Bool(!a.B), nil
	}
	return value.Value{}, invalidUn("!", a)
}

func evalNeg(a value.Value) (value.Value, error) {
	switch a.T {
	case ast.TInt:
		return value.Int(-a.I), nil
	case ast.TFloat:
		return value.Float(-a.F), nil
	}
	return value.Value{}, invalidUn("-", a)
}
