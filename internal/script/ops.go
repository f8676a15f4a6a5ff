package script

import (
	"fmt"
	"math"
)

// Operator semantics of the bytecode VM. The differential tests'
// reference tree-walker funnels through the same helpers, so values AND
// error messages stay byte-identical; callers attach the source line.

// binOp applies a non-short-circuit binary operator (and/or are compiled
// to jumps / handled before evaluation and never reach here).
func binOp(op Kind, l, r Value) (Value, error) {
	switch op {
	case Eq:
		return valueEq(l, r), nil
	case NotEq:
		return !valueEq(l, r), nil
	case Concat:
		ls, lok := concatible(l)
		rs, rok := concatible(r)
		if !lok || !rok {
			return nil, fmt.Errorf("attempt to concatenate a %s value", TypeName(pick(lok, r, l)))
		}
		return ls + rs, nil
	}

	// Comparison on strings.
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			switch op {
			case Less:
				return ls < rs, nil
			case LessEq:
				return ls <= rs, nil
			case Greater:
				return ls > rs, nil
			case GreaterEq:
				return ls >= rs, nil
			}
		}
	}

	lf, lok := ToNumber(l)
	rf, rok := ToNumber(r)
	if !lok || !rok {
		return nil, fmt.Errorf("attempt to perform arithmetic on a %s value", TypeName(pick(lok, r, l)))
	}
	switch op {
	case Plus:
		return lf + rf, nil
	case Minus:
		return lf - rf, nil
	case Star:
		return lf * rf, nil
	case Slash:
		return lf / rf, nil
	case Percent:
		return lf - math.Floor(lf/rf)*rf, nil
	case Caret:
		return math.Pow(lf, rf), nil
	case Less:
		return lf < rf, nil
	case LessEq:
		return lf <= rf, nil
	case Greater:
		return lf > rf, nil
	case GreaterEq:
		return lf >= rf, nil
	}
	return nil, fmt.Errorf("unhandled binary operator %s", op)
}

// unOp applies a unary operator.
func unOp(op Kind, v Value) (Value, error) {
	switch op {
	case Minus:
		f, ok := ToNumber(v)
		if !ok {
			return nil, fmt.Errorf("attempt to negate a %s value", TypeName(v))
		}
		return -f, nil
	case KwNot:
		return !Truthy(v), nil
	case Hash:
		switch v := v.(type) {
		case string:
			return float64(len(v)), nil
		case *Table:
			return float64(v.Len()), nil
		}
		return nil, fmt.Errorf("attempt to get length of a %s value", TypeName(v))
	}
	return nil, fmt.Errorf("unhandled unary operator %s", op)
}

// indexValue reads obj[key]. Strings index through the string library so
// s:len()-style lookups work; the method receives the interpreter to
// reach that global table.
func (ip *Interp) indexValue(obj, key Value) (Value, error) {
	switch obj := obj.(type) {
	case *Table:
		return obj.Get(key), nil
	case string:
		if strlib, ok := ip.globals["string"].(*Table); ok {
			return strlib.Get(key), nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("cannot index a %s value", TypeName(obj))
}
