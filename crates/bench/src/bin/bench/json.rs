//! Reading result documents back: the parser and getters `compare` and
//! `run all` need on top of the bench crate's JSON writer, plus an
//! indented rendering for the files people read (std-only; there is no
//! serde here).

pub use matchrules_bench::json::Json;

/// Getters over a parsed document; a miss is `None` (or no fields).
pub trait Get {
    fn get(&self, key: &str) -> Option<&Json>;
    fn fields(&self) -> &[(String, Json)];
    fn as_f64(&self) -> Option<f64>;
    fn as_str(&self) -> Option<&str>;
}

impl Get for Json {
    fn get(&self, key: &str) -> Option<&Json> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

/// Indented rendering: nested objects one field per line, arrays and
/// leaf objects (no nested containers) on one line.
pub fn pretty(doc: &Json) -> String {
    let mut out = String::new();
    pretty_into(doc, &mut out, 0);
    out.push('\n');
    out
}

fn is_leaf(doc: &Json) -> bool {
    doc.fields().iter().all(|(_, v)| !matches!(v, Json::Obj(_)))
}

fn pretty_into(doc: &Json, out: &mut String, depth: usize) {
    match doc {
        Json::Obj(fields) if !is_leaf(doc) || fields.len() > 8 => {
            out.push_str("{\n");
            for (i, (key, value)) in fields.iter().enumerate() {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&Json::Str(key.clone()).to_string());
                out.push_str(": ");
                pretty_into(value, out, depth + 1);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Json::Obj(fields));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Json::Arr(items));
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip() {
        let doc = Json::obj()
            .field("name", "wire \"read\"\n")
            .field("value", 1.2034)
            .field("none", Json::Null)
            .field("nan", f64::NAN)
            .field("list", Json::Arr(vec![Json::from(1usize), Json::from(true)]))
            .field("nested", Json::obj().field("µs", 0.000001));
        for text in [doc.to_string(), pretty(&doc)] {
            let back = parse(&text).expect("own output parses");
            assert_eq!(back.get("name").and_then(Json::as_str), Some("wire \"read\"\n"));
            assert_eq!(back.get("value").and_then(Json::as_f64), Some(1.2034));
            assert!(matches!(back.get("nan"), Some(Json::Null)));
            assert_eq!(back.get("nested").and_then(|n| n.get("µs")).unwrap().as_f64(), Some(1e-6));
        }
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("{\"a\":").is_err());
    }
}
