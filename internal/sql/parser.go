package sql

import (
	"fmt"
	"strconv"
	"strings"

	"astore/internal/expr"
	"astore/internal/query"
)

// Statement is one parsed SPJGA SELECT statement: the compiled query plus
// the routing metadata a database-level caller needs — the FROM-clause
// table names, in source order, as written. The names take no part in
// query execution (joins are implied by AIR), but the serving layer uses
// them to route the statement to the right fact-table engine.
type Statement struct {
	Query  *query.Query
	Tables []string
}

// Parse compiles one SPJGA SELECT statement into a query, discarding the
// routing metadata. See ParseStatement.
func Parse(src string) (*query.Query, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	return st.Query, nil
}

// ParseStatement compiles one SPJGA SELECT statement. See the package
// comment for the accepted grammar; notable rules:
//
//   - FROM names are collected as routing metadata but take no part in
//     execution (joins are implied by AIR);
//   - WHERE is a conjunction; column = column predicates are join
//     conditions and are dropped;
//   - every aggregate may carry AS name (a name is synthesized otherwise);
//   - non-aggregate SELECT items must appear in GROUP BY.
func ParseStatement(src string) (*Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &Statement{Query: q, Tables: p.tables}, nil
}

type parser struct {
	toks   []token
	i      int
	src    string
	tables []string // FROM-clause table names, in source order
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// acceptKw consumes the next token if it is the given keyword.
func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tokIdent && p.cur().text == kw {
		p.i++
		return true
	}
	return false
}

// acceptSym consumes the next token if it is the given symbol.
func (p *parser) acceptSym(s string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", strings.ToUpper(kw))
	}
	return nil
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	at := t.raw
	if t.kind == tokEOF {
		at = "end of input"
	}
	return fmt.Errorf("sql: %s at %q (offset %d)", fmt.Sprintf(format, args...), at, t.pos)
}

var aggKinds = map[string]expr.AggKind{
	"sum": expr.Sum, "count": expr.Count, "min": expr.Min, "max": expr.Max, "avg": expr.Avg,
}

// selItem is one SELECT-list entry.
type selItem struct {
	col string          // plain column reference, or
	agg *expr.Aggregate // aggregate call
}

func (p *parser) parseQuery() (*query.Query, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	var items []selItem
	for {
		it, err := p.parseSelItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.acceptSym(",") {
			break
		}
	}

	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	// Table names are recorded for routing; the join structure comes from
	// the schema's AIR edges.
	for {
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected table name")
		}
		p.tables = append(p.tables, p.next().raw)
		if !p.acceptSym(",") {
			break
		}
	}

	q := query.New("sql")
	if p.acceptKw("where") {
		for {
			pred, isJoin, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			if !isJoin {
				q.Where(pred)
			}
			if !p.acceptKw("and") {
				break
			}
		}
	}

	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected group column")
			}
			q.GroupByCols(p.next().raw)
			if !p.acceptSym(",") {
				break
			}
		}
	}

	// SELECT-list semantics: aggregates become Aggs; plain columns must be
	// grouped.
	grouped := make(map[string]bool, len(q.GroupBy))
	for _, g := range q.GroupBy {
		grouped[g] = true
	}
	for _, it := range items {
		if it.agg != nil {
			q.Agg(*it.agg)
			continue
		}
		if !grouped[it.col] {
			return nil, fmt.Errorf("sql: column %q in SELECT must appear in GROUP BY", it.col)
		}
	}

	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected order column")
			}
			col := p.next().raw
			switch {
			case p.acceptKw("desc"):
				q.OrderDesc(col)
			case p.acceptKw("asc"):
				q.OrderAsc(col)
			default:
				q.OrderAsc(col)
			}
			if !p.acceptSym(",") {
				break
			}
		}
	}

	if p.acceptKw("limit") {
		if p.cur().kind != tokNumber {
			return nil, p.errf("expected LIMIT count")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT value")
		}
		q.WithLimit(n)
	}

	// A statement may close with one or more ';' terminators; anything else
	// after the statement — a second statement, stray tokens — is rejected
	// so that input like "SELECT ...; DROP ..." cannot be half-executed
	// silently.
	terminated := false
	for p.acceptSym(";") {
		terminated = true
	}
	if p.cur().kind != tokEOF {
		if terminated {
			return nil, p.errf("input after statement terminator ';'")
		}
		return nil, p.errf("unexpected trailing input after statement")
	}
	return q, nil
}

func (p *parser) parseSelItem() (selItem, error) {
	t := p.cur()
	if t.kind == tokIdent {
		if kind, isAgg := aggKinds[t.text]; isAgg && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.next() // agg keyword
			p.next() // (
			a := expr.Aggregate{Kind: kind}
			if kind == expr.Count && p.acceptSym("*") {
				// COUNT(*)
			} else {
				e, err := p.parseNumExpr()
				if err != nil {
					return selItem{}, err
				}
				a.Expr = e
			}
			if err := p.expectSym(")"); err != nil {
				return selItem{}, err
			}
			a.As = p.parseAlias()
			if a.As == "" {
				a.As = synthName(a)
			}
			return selItem{agg: &a}, nil
		}
		col := p.next().raw
		// A plain column may also carry a no-op alias.
		p.parseAlias()
		return selItem{col: col}, nil
	}
	return selItem{}, p.errf("expected select item")
}

// parseAlias consumes [AS] ident and returns the alias (or "").
func (p *parser) parseAlias() string {
	if p.acceptKw("as") {
		if p.cur().kind == tokIdent {
			return p.next().raw
		}
		return ""
	}
	// Bare alias: an identifier that is not a clause keyword.
	if p.cur().kind == tokIdent {
		switch p.cur().text {
		case "from", "where", "group", "order", "limit", "and", "asc", "desc", "by":
			return ""
		}
		return p.next().raw
	}
	return ""
}

func synthName(a expr.Aggregate) string {
	base := a.Kind.String()
	if a.Expr != nil {
		cols := expr.Cols(a.Expr)
		if len(cols) > 0 {
			base += "_" + cols[0]
		}
	}
	return base
}

// parseNumExpr parses an arithmetic measure expression.
func (p *parser) parseNumExpr() (expr.NumExpr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("+"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = expr.Add(left, right)
		case p.acceptSym("-"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = expr.Subtract(left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTerm() (expr.NumExpr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("*"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = expr.Mul(left, right)
		case p.acceptSym("/"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = expr.Div(left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseFactor() (expr.NumExpr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.text)
		}
		return expr.K(v), nil
	case t.kind == tokIdent:
		p.next()
		return expr.C(t.raw), nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseNumExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected expression")
}

// parsePred parses one conjunct of WHERE. isJoin reports a column = column
// condition, which the caller drops (the join is implied by AIR).
func (p *parser) parsePred() (expr.Pred, bool, error) {
	if p.cur().kind != tokIdent {
		return expr.Pred{}, false, p.errf("expected predicate column")
	}
	col := p.next().raw

	if p.acceptKw("between") {
		lo, err := p.parseLiteral()
		if err != nil {
			return expr.Pred{}, false, err
		}
		if err := p.expectKw("and"); err != nil {
			return expr.Pred{}, false, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return expr.Pred{}, false, err
		}
		pred, err := betweenPred(col, lo, hi)
		return pred, false, err
	}

	if p.acceptKw("in") {
		if err := p.expectSym("("); err != nil {
			return expr.Pred{}, false, err
		}
		var lits []literal
		for {
			l, err := p.parseLiteral()
			if err != nil {
				return expr.Pred{}, false, err
			}
			lits = append(lits, l)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return expr.Pred{}, false, err
		}
		pred, err := inPred(col, lits)
		return pred, false, err
	}

	opTok := p.cur()
	if opTok.kind != tokSymbol {
		return expr.Pred{}, false, p.errf("expected comparison operator")
	}
	var op expr.Op
	switch opTok.text {
	case "=":
		op = expr.Eq
	case "<>", "!=":
		op = expr.Ne
	case "<":
		op = expr.Lt
	case "<=":
		op = expr.Le
	case ">":
		op = expr.Gt
	case ">=":
		op = expr.Ge
	default:
		return expr.Pred{}, false, p.errf("unknown operator %q", opTok.text)
	}
	p.next()

	// Column = column is a join condition; AIR already encodes it.
	if p.cur().kind == tokIdent {
		if op != expr.Eq {
			return expr.Pred{}, false, p.errf("only equality joins are supported")
		}
		p.next()
		return expr.Pred{}, true, nil
	}

	lit, err := p.parseLiteral()
	if err != nil {
		return expr.Pred{}, false, err
	}
	pred, err := cmpPred(col, op, lit)
	return pred, false, err
}

// literal is a parsed WHERE literal.
type literal struct {
	isStr   bool
	isFloat bool
	s       string
	i       int64
	f       float64
}

func (p *parser) parseLiteral() (literal, error) {
	t := p.cur()
	switch t.kind {
	case tokString:
		p.next()
		return literal{isStr: true, s: t.text}, nil
	case tokNumber:
		p.next()
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return literal{}, fmt.Errorf("sql: bad number %q", t.text)
			}
			return literal{isFloat: true, f: f}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return literal{}, fmt.Errorf("sql: bad number %q", t.text)
		}
		return literal{i: i}, nil
	case tokSymbol:
		if t.text == "-" { // negative numbers
			p.next()
			l, err := p.parseLiteral()
			if err != nil || l.isStr {
				return literal{}, p.errf("expected number after '-'")
			}
			l.i, l.f = -l.i, -l.f
			return l, nil
		}
	}
	return literal{}, p.errf("expected literal")
}

func cmpPred(col string, op expr.Op, l literal) (expr.Pred, error) {
	switch {
	case l.isStr:
		return expr.Pred{Col: col, Op: op, Kind: expr.KStr, SVal: l.s}, nil
	case l.isFloat:
		return expr.Pred{Col: col, Op: op, Kind: expr.KFloat, FVal: l.f}, nil
	default:
		return expr.Pred{Col: col, Op: op, Kind: expr.KInt, IVal: l.i}, nil
	}
}

func betweenPred(col string, lo, hi literal) (expr.Pred, error) {
	if lo.isStr != hi.isStr {
		return expr.Pred{}, fmt.Errorf("sql: BETWEEN bounds of mixed types on %s", col)
	}
	switch {
	case lo.isStr:
		return expr.StrBetween(col, lo.s, hi.s), nil
	case lo.isFloat || hi.isFloat:
		loF, hiF := lo.f, hi.f
		if !lo.isFloat {
			loF = float64(lo.i)
		}
		if !hi.isFloat {
			hiF = float64(hi.i)
		}
		return expr.FloatBetween(col, loF, hiF), nil
	default:
		return expr.IntBetween(col, lo.i, hi.i), nil
	}
}

func inPred(col string, lits []literal) (expr.Pred, error) {
	if lits[0].isStr {
		ss := make([]string, len(lits))
		for i, l := range lits {
			if !l.isStr {
				return expr.Pred{}, fmt.Errorf("sql: IN list of mixed types on %s", col)
			}
			ss[i] = l.s
		}
		return expr.StrIn(col, ss...), nil
	}
	vs := make([]int64, len(lits))
	for i, l := range lits {
		if l.isStr || l.isFloat {
			return expr.Pred{}, fmt.Errorf("sql: IN list of mixed types on %s", col)
		}
		vs[i] = l.i
	}
	return expr.IntIn(col, vs...), nil
}
