//! Typed query filters and the SQL-like text query language.
//!
//! The paper emphasizes a *programmable* interface: "users can write an
//! SQL-like query to retrieve relevant performance data". This module
//! provides both layers — a composable [`Filter`] AST for Rust callers,
//! and a parser for text like
//!
//! ```text
//! problem = 'PDGEQRF' AND task.m BETWEEN 1000 AND 20000
//!   AND machine.name IN ('cori', 'perlmutter') AND NOT status = 'failed'
//! ```
//!
//! Field paths are the dotted paths understood by
//! [`FunctionEvaluation::field`](crate::document::FunctionEvaluation::field).

use crate::document::{FunctionEvaluation, Scalar, ScalarRef};

/// A query filter over stored documents.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches everything.
    True,
    /// Field equals value (numeric coercion; case-insensitive strings).
    Eq(String, Scalar),
    /// Field differs from value.
    Ne(String, Scalar),
    /// Numeric field strictly less than.
    Lt(String, f64),
    /// Numeric field less than or equal.
    Le(String, f64),
    /// Numeric field strictly greater than.
    Gt(String, f64),
    /// Numeric field greater than or equal.
    Ge(String, f64),
    /// Numeric field in `[lo, hi)` — the paper's half-open bound style.
    Between(String, f64, f64),
    /// Field equals any of the listed values.
    In(String, Vec<Scalar>),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// Any sub-filter matches.
    Or(Vec<Filter>),
    /// Sub-filter does not match.
    Not(Box<Filter>),
}

fn scalar_eq(a: ScalarRef<'_>, b: &Scalar) -> bool {
    match (a, b) {
        (ScalarRef::Str(x), Scalar::Str(y)) => x.eq_ignore_ascii_case(y),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
    }
}

impl Filter {
    /// Evaluate the filter against a document. Missing fields never match
    /// (except under `Not`).
    pub fn matches(&self, e: &FunctionEvaluation) -> bool {
        match self {
            Filter::True => true,
            Filter::Eq(path, v) => e.field_ref(path).is_some_and(|f| scalar_eq(f, v)),
            Filter::Ne(path, v) => e.field_ref(path).is_some_and(|f| !scalar_eq(f, v)),
            Filter::Lt(path, v) => num(e, path).is_some_and(|f| f < *v),
            Filter::Le(path, v) => num(e, path).is_some_and(|f| f <= *v),
            Filter::Gt(path, v) => num(e, path).is_some_and(|f| f > *v),
            Filter::Ge(path, v) => num(e, path).is_some_and(|f| f >= *v),
            Filter::Between(path, lo, hi) => num(e, path).is_some_and(|f| f >= *lo && f < *hi),
            Filter::In(path, vs) => e
                .field_ref(path)
                .is_some_and(|f| vs.iter().any(|v| scalar_eq(f, v))),
            Filter::And(fs) => fs.iter().all(|f| f.matches(e)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(e)),
            Filter::Not(f) => !f.matches(e),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Filter) -> Filter {
        match self {
            Filter::And(mut fs) => {
                fs.push(other);
                Filter::And(fs)
            }
            f => Filter::And(vec![f, other]),
        }
    }
}

fn num(e: &FunctionEvaluation, path: &str) -> Option<f64> {
    e.field_ref(path).and_then(ScalarRef::as_f64)
}

/// Numeric index key with a total order (`f64::total_cmp`), normalized so
/// index lookups agree with [`scalar_eq`]'s `==` semantics: `-0.0` maps
/// to `+0.0` and every NaN payload to one canonical NaN. Canonicalizing
/// NaN can only produce false positives (a NaN probe finding NaN docs),
/// which the post-index `matches` verification discards.
#[derive(Debug, Clone, Copy)]
struct NumKey(f64);

impl NumKey {
    fn new(v: f64) -> Self {
        if v == 0.0 {
            NumKey(0.0)
        } else if v.is_nan() {
            NumKey(f64::NAN)
        } else {
            NumKey(v)
        }
    }
}

impl PartialEq for NumKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for NumKey {}
impl PartialOrd for NumKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NumKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Normalized index key. Numeric scalars (Int and Real alike) share the
/// f64 key space, mirroring [`scalar_eq`]'s coercion; strings are
/// lowercased, mirroring its case-insensitive comparison.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum IndexKey {
    /// Numbers sort before strings; only this variant participates in
    /// range plans.
    Num(NumKey),
    /// Case-normalized string.
    Str(String),
}

fn key_of(s: ScalarRef<'_>) -> IndexKey {
    match s {
        ScalarRef::Int(v) => IndexKey::Num(NumKey::new(v as f64)),
        ScalarRef::Real(v) => IndexKey::Num(NumKey::new(v)),
        ScalarRef::Str(s) => IndexKey::Str(s.to_ascii_lowercase()),
    }
}

/// Secondary indexes over every queryable field path, mapping normalized
/// values to the (ascending) positions of the documents holding them.
///
/// [`FieldIndexes::plan`] turns a [`Filter`] into a candidate-position
/// list that is guaranteed to be a superset of the filter's matches, so
/// the store only examines those candidates (still verifying each with
/// [`Filter::matches`]) instead of scanning the whole collection.
#[derive(Debug, Default)]
pub struct FieldIndexes {
    fields: std::collections::HashMap<String, std::collections::BTreeMap<IndexKey, Vec<usize>>>,
}

impl FieldIndexes {
    /// Index one document at collection position `pos`. Positions must be
    /// fed in ascending order (the store appends). Paths are looked up by
    /// reference first, so only a path seen for the first time allocates
    /// a key.
    pub fn insert_doc(&mut self, pos: usize, doc: &FunctionEvaluation) {
        let fields = &mut self.fields;
        doc.visit_indexed_fields(|path, value| {
            let index = match fields.get_mut(path) {
                Some(index) => index,
                None => fields.entry(path.to_string()).or_default(),
            };
            index.entry(key_of(value)).or_default().push(pos);
        });
    }

    /// Candidate document positions for a filter: `Some(sorted positions)`
    /// when the indexes can prune the scan (every match is guaranteed to
    /// be among the candidates), `None` when only a full scan is sound.
    pub fn plan(&self, filter: &Filter) -> Option<Vec<usize>> {
        match filter {
            Filter::Eq(path, v) => self.postings_eq(path, std::slice::from_ref(v)),
            Filter::In(path, vs) => self.postings_eq(path, vs),
            Filter::Lt(path, v) => self.postings_range(path, f64::NEG_INFINITY, *v, true, false),
            Filter::Le(path, v) => self.postings_range(path, f64::NEG_INFINITY, *v, true, true),
            Filter::Gt(path, v) => self.postings_range(path, *v, f64::INFINITY, false, true),
            Filter::Ge(path, v) => self.postings_range(path, *v, f64::INFINITY, true, true),
            Filter::Between(path, lo, hi) => self.postings_range(path, *lo, *hi, true, false),
            // Any prunable conjunct bounds the whole conjunction; take the
            // tightest one.
            Filter::And(fs) => fs
                .iter()
                .filter_map(|f| self.plan(f))
                .min_by_key(|c| c.len()),
            // A disjunction prunes only when every branch does.
            Filter::Or(fs) => {
                let mut union: Vec<usize> = Vec::new();
                for f in fs {
                    union.extend(self.plan(f)?);
                }
                union.sort_unstable();
                union.dedup();
                Some(union)
            }
            // Ne/Not match documents *lacking* indexed values (missing
            // fields under Not), and True matches everything: no pruning.
            Filter::True | Filter::Ne(..) | Filter::Not(_) => None,
        }
    }

    fn postings_eq(&self, path: &str, values: &[Scalar]) -> Option<Vec<usize>> {
        // An unknown path means no document carries the field, but only
        // paths enumerated by `indexed_fields` are indexed — stay sound
        // for any future alias by falling back to a scan.
        let index = self.fields.get(path)?;
        let mut out: Vec<usize> = Vec::new();
        for v in values {
            if let Some(postings) = index.get(&key_of(v.into())) {
                out.extend(postings);
            }
        }
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    fn postings_range(
        &self,
        path: &str,
        lo: f64,
        hi: f64,
        lo_inclusive: bool,
        hi_inclusive: bool,
    ) -> Option<Vec<usize>> {
        use std::ops::Bound;
        let index = self.fields.get(path)?;
        let lo_key = IndexKey::Num(NumKey::new(lo));
        let hi_key = IndexKey::Num(NumKey::new(hi));
        // An inverted or degenerate-exclusive interval matches nothing —
        // and would panic inside BTreeMap::range.
        if lo_key > hi_key || (lo_key == hi_key && !(lo_inclusive && hi_inclusive)) {
            return Some(Vec::new());
        }
        let lo = if lo_inclusive {
            Bound::Included(lo_key)
        } else {
            Bound::Excluded(lo_key)
        };
        let hi = if hi_inclusive {
            Bound::Included(hi_key)
        } else {
            Bound::Excluded(hi_key)
        };
        let mut out: Vec<usize> = index
            .range((lo, hi))
            .flat_map(|(_, postings)| postings.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        Some(out)
    }
}

/// Parse error for the text query language.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub position: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Num(f64),
    Op(&'static str),
    LParen,
    RParen,
    Comma,
    And,
    Or,
    Not,
    In,
    Between,
}

fn lex(input: &str) -> Result<Vec<(Token, usize)>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        match c {
            '(' => {
                out.push((Token::LParen, start));
                i += 1;
            }
            ')' => {
                out.push((Token::RParen, start));
                i += 1;
            }
            ',' => {
                out.push((Token::Comma, start));
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                i += 1;
                let s0 = i;
                while i < bytes.len() && bytes[i] as char != quote {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(ParseError {
                        message: "unterminated string literal".into(),
                        position: start,
                    });
                }
                out.push((Token::Str(input[s0..i].to_string()), start));
                i += 1;
            }
            '=' => {
                out.push((Token::Op("="), start));
                i += 1;
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                out.push((Token::Op("!="), start));
                i += 2;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push((Token::Op("<="), start));
                    i += 2;
                } else {
                    out.push((Token::Op("<"), start));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push((Token::Op(">="), start));
                    i += 2;
                } else {
                    out.push((Token::Op(">"), start));
                    i += 1;
                }
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let mut j = i + 1;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit()
                        || bytes[j] == b'.'
                        || bytes[j] == b'e'
                        || bytes[j] == b'E'
                        || ((bytes[j] == b'-' || bytes[j] == b'+')
                            && (bytes[j - 1] == b'e' || bytes[j - 1] == b'E')))
                {
                    j += 1;
                }
                let text = &input[i..j];
                let v: f64 = text.parse().map_err(|_| ParseError {
                    message: format!("bad number '{text}'"),
                    position: start,
                })?;
                out.push((Token::Num(v), start));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric()
                        || bytes[j] == b'_'
                        || bytes[j] == b'.')
                {
                    j += 1;
                }
                let word = &input[i..j];
                let tok = match word.to_ascii_uppercase().as_str() {
                    "AND" => Token::And,
                    "OR" => Token::Or,
                    "NOT" => Token::Not,
                    "IN" => Token::In,
                    "BETWEEN" => Token::Between,
                    _ => Token::Ident(word.to_string()),
                };
                out.push((tok, start));
                i = j;
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character '{other}'"),
                    position: start,
                });
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(_, p)| *p)
            .unwrap_or(usize::MAX)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.here().min(1 << 20),
        }
    }

    fn parse_or(&mut self) -> Result<Filter, ParseError> {
        let mut terms = vec![self.parse_and()?];
        while matches!(self.peek(), Some(Token::Or)) {
            self.next();
            terms.push(self.parse_and()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            Filter::Or(terms)
        })
    }

    fn parse_and(&mut self) -> Result<Filter, ParseError> {
        let mut terms = vec![self.parse_unary()?];
        while matches!(self.peek(), Some(Token::And)) {
            self.next();
            terms.push(self.parse_unary()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            Filter::And(terms)
        })
    }

    fn parse_unary(&mut self) -> Result<Filter, ParseError> {
        if matches!(self.peek(), Some(Token::Not)) {
            self.next();
            return Ok(Filter::Not(Box::new(self.parse_unary()?)));
        }
        if matches!(self.peek(), Some(Token::LParen)) {
            self.next();
            let inner = self.parse_or()?;
            match self.next() {
                Some(Token::RParen) => return Ok(inner),
                _ => return Err(self.err("expected ')'")),
            }
        }
        self.parse_comparison()
    }

    fn parse_value(&mut self) -> Result<Scalar, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(Scalar::Str(s)),
            Some(Token::Num(v)) => {
                if v.fract() == 0.0 && v.abs() < 9e15 {
                    Ok(Scalar::Int(v as i64))
                } else {
                    Ok(Scalar::Real(v))
                }
            }
            Some(Token::Ident(s)) => Ok(Scalar::Str(s)), // bare words as strings
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_number(&mut self) -> Result<f64, ParseError> {
        match self.next() {
            Some(Token::Num(v)) => Ok(v),
            _ => Err(self.err("expected a number")),
        }
    }

    fn parse_comparison(&mut self) -> Result<Filter, ParseError> {
        let path = match self.next() {
            Some(Token::Ident(s)) => s,
            _ => return Err(self.err("expected a field path")),
        };
        match self.next() {
            Some(Token::Op(op)) => {
                let v = self.parse_value()?;
                Ok(match op {
                    "=" => Filter::Eq(path, v),
                    "!=" => Filter::Ne(path, v),
                    _ => {
                        let num = v.as_f64().ok_or_else(|| {
                            self.err(format!("operator '{op}' needs a numeric value"))
                        })?;
                        match op {
                            "<" => Filter::Lt(path, num),
                            "<=" => Filter::Le(path, num),
                            ">" => Filter::Gt(path, num),
                            ">=" => Filter::Ge(path, num),
                            _ => unreachable!(),
                        }
                    }
                })
            }
            Some(Token::In) => {
                if !matches!(self.next(), Some(Token::LParen)) {
                    return Err(self.err("expected '(' after IN"));
                }
                let mut values = vec![self.parse_value()?];
                loop {
                    match self.next() {
                        Some(Token::Comma) => values.push(self.parse_value()?),
                        Some(Token::RParen) => break,
                        _ => return Err(self.err("expected ',' or ')' in IN list")),
                    }
                }
                Ok(Filter::In(path, values))
            }
            Some(Token::Between) => {
                let lo = self.parse_number()?;
                if !matches!(self.next(), Some(Token::And)) {
                    return Err(self.err("expected AND in BETWEEN"));
                }
                let hi = self.parse_number()?;
                Ok(Filter::Between(path, lo, hi))
            }
            _ => Err(self.err("expected a comparison operator")),
        }
    }
}

/// Parse a text query into a [`Filter`].
pub fn parse_query(input: &str) -> Result<Filter, ParseError> {
    let trimmed = input.trim();
    if trimmed.is_empty() {
        return Ok(Filter::True);
    }
    let tokens = lex(trimmed)?;
    let mut p = Parser { tokens, pos: 0 };
    let f = p.parse_or()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{EvalOutcome, MachineConfig};

    fn doc() -> FunctionEvaluation {
        FunctionEvaluation::new("PDGEQRF", "alice")
            .task("m", 10_000i64)
            .task("n", 8_000i64)
            .param("mb", 4i64)
            .outcome(EvalOutcome::single("runtime", 3.65))
            .on_machine(MachineConfig::new("cori", "haswell", 8, 32))
    }

    #[test]
    fn basic_comparisons() {
        let e = doc();
        assert!(Filter::Eq("problem".into(), "pdgeqrf".into()).matches(&e)); // case-insensitive
        assert!(Filter::Ge("task.m".into(), 10_000.0).matches(&e));
        assert!(!Filter::Gt("task.m".into(), 10_000.0).matches(&e));
        assert!(Filter::Between("task.n".into(), 8_000.0, 8_001.0).matches(&e));
        assert!(!Filter::Between("task.n".into(), 0.0, 8_000.0).matches(&e)); // half-open
        assert!(Filter::In(
            "machine.name".into(),
            vec!["perlmutter".into(), "cori".into()]
        )
        .matches(&e));
    }

    #[test]
    fn missing_fields_never_match_positively() {
        let e = doc();
        assert!(!Filter::Eq("task.zzz".into(), Scalar::Int(1)).matches(&e));
        assert!(!Filter::Lt("task.zzz".into(), 100.0).matches(&e));
        // But NOT of a missing-field comparison does match.
        assert!(Filter::Not(Box::new(Filter::Eq("task.zzz".into(), Scalar::Int(1)))).matches(&e));
    }

    #[test]
    fn numeric_coercion_int_real() {
        let e = doc();
        assert!(Filter::Eq("task.m".into(), Scalar::Real(10_000.0)).matches(&e));
        assert!(Filter::Eq("output.runtime".into(), Scalar::Real(3.65)).matches(&e));
    }

    #[test]
    fn parse_simple_equality() {
        let f = parse_query("problem = 'PDGEQRF'").unwrap();
        assert_eq!(
            f,
            Filter::Eq("problem".into(), Scalar::Str("PDGEQRF".into()))
        );
        assert!(f.matches(&doc()));
    }

    #[test]
    fn parse_conjunction_and_ranges() {
        let f =
            parse_query("problem = 'PDGEQRF' AND task.m >= 1000 AND task.n BETWEEN 1 AND 20000")
                .unwrap();
        assert!(f.matches(&doc()));
        let g = parse_query("problem = 'PDGEQRF' AND task.m < 1000").unwrap();
        assert!(!g.matches(&doc()));
    }

    #[test]
    fn parse_in_list_and_not() {
        let f = parse_query("machine.name IN ('cori', 'perlmutter') AND NOT status = 'failed'")
            .unwrap();
        assert!(f.matches(&doc()));
        let failed = doc().outcome(EvalOutcome::Failed {
            reason: "OOM".into(),
        });
        assert!(!f.matches(&failed));
    }

    #[test]
    fn parse_or_with_parens() {
        let f = parse_query("(task.m = 10000 OR task.m = 99) AND param.mb <= 4").unwrap();
        assert!(f.matches(&doc()));
        let g = parse_query("task.m = 99 OR param.mb > 100").unwrap();
        assert!(!g.matches(&doc()));
    }

    #[test]
    fn parse_precedence_and_binds_tighter_than_or() {
        // a OR b AND c  ==  a OR (b AND c)
        let f = parse_query("task.m = 1 OR task.m = 10000 AND param.mb = 4").unwrap();
        assert!(f.matches(&doc()));
        match f {
            Filter::Or(terms) => {
                assert_eq!(terms.len(), 2);
                assert!(matches!(terms[1], Filter::And(_)));
            }
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("problem = ").is_err());
        assert!(parse_query("problem == 'x'").is_err());
        assert!(parse_query("(problem = 'x'").is_err());
        assert!(parse_query("problem = 'x' extra").is_err());
        assert!(parse_query("task.m BETWEEN 1 2").is_err());
        assert!(parse_query("task.m < 'abc'").is_err());
        assert!(parse_query("problem = 'unterminated").is_err());
        assert!(parse_query("task.m # 3").is_err());
    }

    #[test]
    fn empty_query_matches_all() {
        assert_eq!(parse_query("").unwrap(), Filter::True);
        assert!(parse_query("  ").unwrap().matches(&doc()));
    }

    #[test]
    fn bare_word_values_parse_as_strings() {
        let f = parse_query("machine.node_type = haswell").unwrap();
        assert!(f.matches(&doc()));
    }

    #[test]
    fn scientific_notation_numbers() {
        let f = parse_query("output.runtime < 1e3").unwrap();
        assert!(f.matches(&doc()));
        let g = parse_query("output.runtime < 1.0e-2").unwrap();
        assert!(!g.matches(&doc()));
    }
}
