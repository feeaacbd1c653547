//! Offline drop-in replacement for `serde_json`, backed by the `serde`
//! shim's [`Value`] tree: `to_string`, `to_string_pretty`, `from_str`,
//! and a `Value` type with indexing/accessors for tests.

pub use serde::Value;

use serde::{Deserialize, Serialize};

pub type Error = serde::Error;
pub type Result<T> = std::result::Result<T, Error>;

pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    T::from_value(value)
}

pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    T::from_owned(value)
}

// ---------------------------------------------------------------------
// Writer

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::msg(format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid \\u codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(Error::msg(format!("invalid escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 character verbatim.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::msg("invalid utf8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected , or ] in array, found {other:?}"
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected , or }} in object, found {other:?}"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::String("a \"b\"\n".to_string())),
            (
                "xs".to_string(),
                Value::Array(vec![Value::Number(1.0), Value::Null, Value::Bool(true)]),
            ),
            ("pi".to_string(), Value::Number(3.25)),
        ]);
        for text in [
            to_string(&value).unwrap(),
            to_string_pretty(&value).unwrap(),
        ] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, value);
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(to_string(&vec![3u64]).unwrap(), "[\n3\n]".replace('\n', ""));
    }

    #[test]
    fn nested_documents_parse_whole_and_equal_their_copies() {
        let text =
            r#"{"op":"query","u":[0,1,true,null,-2.5],"deep":{"a":[{"b":"c\n"},[]],"e":{}}}"#;
        let parsed: Value = from_str(text).unwrap();
        let copied: Value = from_value(&parsed).unwrap();
        assert_eq!(parsed, copied);
        assert_eq!(parsed["u"][2].as_bool(), Some(true));
        assert_eq!(parsed["deep"]["a"][0]["b"], "c\n");
        let back: Value = from_str(&to_string(&parsed).unwrap()).unwrap();
        assert_eq!(back, parsed);
    }

    #[test]
    fn numbers_parse_to_the_bits_of_str_parse() {
        // A number is the f64 `str::parse` makes of its token, also
        // past 2^53 and past u64.
        let (digits20, digits24) = ("99999999999999999999", "123456789012345678901234");
        for token in [
            "0",
            "1",
            "007",
            "-0",
            "0.5",
            "1e3",
            "-17",
            "999999999999999",
            "-999999999999999",
            "9007199254740993",
            digits20,
            digits24,
        ] {
            let parsed: Value = from_str(token).unwrap();
            let want = token.parse::<f64>().unwrap();
            assert_eq!(
                parsed.as_f64().map(f64::to_bits),
                Some(want.to_bits()),
                "{token}"
            );
        }
        for bad in ["-", "1-2", "1.2.3"] {
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn index_and_accessors() {
        let v: Value = from_str(r#"{"metrics":["FPR","FNR"],"n":4}"#).unwrap();
        assert_eq!(v["metrics"][0], "FPR");
        assert_eq!(v["metrics"].as_array().unwrap().len(), 2);
        assert_eq!(v["n"].as_u64(), Some(4));
        assert!(v["missing"].is_null());
    }
}
