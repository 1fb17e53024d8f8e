//! Offline stand-in for `serde_derive`.
//!
//! Generates impls of the stand-in `serde::Serialize` /
//! `serde::Deserialize` traits (see `shims/serde`) for plain structs and
//! enums. The parser is hand-rolled over `proc_macro::TokenTree` — no
//! `syn`/`quote`, since this environment cannot fetch crates. Supported
//! shapes (everything this workspace derives on):
//!
//! * structs with named fields, honoring `#[serde(default)]` and
//!   `#[serde(flatten)]` (the field's own map pairs are spliced in place
//!   on write, and the field is decoded from the same map on read);
//! * newtype structs (serialized transparently, like real serde);
//! * enums with unit, newtype and struct variants (externally tagged).
//!
//! A derived decoder prefixes each named field's errors with the field
//! name, so an error deep in a nested value names its path.
//!
//! Other shapes (generics, unit structs, tuple structs or variants with
//! more than one field, `flatten` in an enum variant) are rejected with a
//! compile error rather than silently miscompiled.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Dir::Ser)
}

/// Derive the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Dir::De)
}

#[derive(Clone, Copy, PartialEq)]
enum Dir {
    Ser,
    De,
}

fn expand(input: TokenStream, dir: Dir) -> TokenStream {
    match parse_item(input) {
        Ok(item) => {
            let code = match dir {
                Dir::Ser => gen_serialize(&item),
                Dir::De => gen_deserialize(&item),
            };
            code.parse().expect("generated impl parses")
        }
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------------
// Data model of the parsed item
// ---------------------------------------------------------------------

struct Field {
    name: String,
    attrs: FieldAttrs,
}

/// The `#[serde(...)]` field attributes the stand-in honours.
#[derive(Default)]
struct FieldAttrs {
    /// `#[serde(default)]`: a missing key decodes as `Default::default()`.
    default: bool,
    /// `#[serde(flatten)]`: the field's map pairs sit in the parent map.
    flatten: bool,
}

/// The shape of an enum variant.
enum Shape {
    Named(Vec<Field>),
    /// One unnamed field.
    Newtype,
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    /// A struct with named fields.
    Struct { name: String, fields: Vec<Field> },
    /// A tuple struct with one field.
    Newtype { name: String },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Parser {
    fn new(ts: TokenStream) -> Parser {
        Parser {
            toks: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Consume leading attributes, collecting the `#[serde(...)]` ones.
    fn skip_attrs(&mut self) -> FieldAttrs {
        let mut attrs = FieldAttrs::default();
        while let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() != '#' {
                break;
            }
            self.bump();
            let Some(TokenTree::Group(g)) = self.bump() else {
                break;
            };
            let body = g.stream().to_string();
            // Normalized token text: `serde(default)` or `serde (default)`.
            let compact: String = body.chars().filter(|c| !c.is_whitespace()).collect();
            if compact.starts_with("serde(") {
                attrs.default |= compact.contains("default");
                attrs.flatten |= compact.contains("flatten");
            }
        }
        attrs
    }

    /// Consume `pub`, `pub(...)` if present.
    fn skip_vis(&mut self) {
        if let Some(TokenTree::Ident(i)) = self.peek() {
            if i.to_string() == "pub" {
                self.bump();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.bump();
                    }
                }
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String, String> {
        match self.bump() {
            Some(TokenTree::Ident(i)) => Ok(i.to_string()),
            other => Err(format!("expected identifier, found {other:?}")),
        }
    }

    /// Skip tokens until a top-level comma (angle-bracket aware), eating
    /// the comma. Returns false when the stream ended instead.
    fn skip_past_comma(&mut self) -> bool {
        let mut angle: i32 = 0;
        while let Some(t) = self.bump() {
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => return true,
                    _ => {}
                }
            }
        }
        false
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut p = Parser::new(input);
    p.skip_attrs();
    p.skip_vis();
    let kw = p.expect_ident()?;
    let name = p.expect_ident()?;
    if let Some(TokenTree::Punct(pt)) = p.peek() {
        if pt.as_char() == '<' {
            return Err(format!(
                "serde stand-in derive does not support generics (on `{name}`)"
            ));
        }
    }
    match kw.as_str() {
        "struct" => match p.bump() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Struct {
                fields: parse_named_fields(g.stream())?,
                name,
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                expect_one_field(g.stream(), &name)?;
                Ok(Item::Newtype { name })
            }
            other => Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => {
            let Some(TokenTree::Group(g)) = p.bump() else {
                return Err("expected enum body".into());
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(g.stream())?,
            })
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut p = Parser::new(body);
    let mut fields = Vec::new();
    while !p.at_end() {
        let attrs = p.skip_attrs();
        if p.at_end() {
            break;
        }
        p.skip_vis();
        let name = p.expect_ident()?;
        match p.bump() {
            Some(TokenTree::Punct(pt)) if pt.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        fields.push(Field { name, attrs });
        if !p.skip_past_comma() {
            break;
        }
    }
    Ok(fields)
}

/// Accept a tuple body of exactly one field; `owner` names the struct or
/// variant in the error.
fn expect_one_field(body: TokenStream, owner: &str) -> Result<(), String> {
    match count_tuple_fields(body) {
        1 => Ok(()),
        n => Err(format!(
            "serde stand-in derive supports one-field tuples only (`{owner}` has {n})"
        )),
    }
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let mut p = Parser::new(body);
    let mut n = 0;
    loop {
        p.skip_attrs();
        if p.at_end() {
            break;
        }
        n += 1;
        if !p.skip_past_comma() {
            break;
        }
        // Trailing comma: nothing after it.
        if p.at_end() {
            break;
        }
    }
    n
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut p = Parser::new(body);
    let mut variants = Vec::new();
    while !p.at_end() {
        p.skip_attrs();
        if p.at_end() {
            break;
        }
        let name = p.expect_ident()?;
        let shape = match p.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                if fields.iter().any(|f| f.attrs.flatten) {
                    return Err(format!(
                        "serde stand-in derive supports `flatten` on struct fields only (variant `{name}`)"
                    ));
                }
                p.bump();
                Shape::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                expect_one_field(g.stream(), &name)?;
                p.bump();
                Shape::Newtype
            }
            _ => Shape::Unit,
        };
        variants.push(Variant { name, shape });
        // Skips any explicit discriminant (`= expr`) along the way.
        if !p.skip_past_comma() {
            break;
        }
    }
    Ok(variants)
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

const VAL: &str = "::serde::value::Value";

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let pushes: Vec<String> = fields
                .iter()
                .map(|f| {
                    let value = format!("::serde::Serialize::to_value(&self.{})", f.name);
                    if f.attrs.flatten {
                        format!("::serde::value::flatten_into(&mut m, {value});")
                    } else {
                        format!(
                            "m.push((::std::string::String::from({:?}), {value}));",
                            f.name
                        )
                    }
                })
                .collect();
            let body = format!(
                "let mut m = ::std::vec::Vec::with_capacity({});\n{}\n{VAL}::Map(m)",
                fields.iter().filter(|f| !f.attrs.flatten).count(),
                pushes.join("\n")
            );
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> {VAL} {{ {body} }}\n\
                 }}"
            )
        }
        Item::Newtype { name } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> {VAL} {{ ::serde::Serialize::to_value(&self.0) }}\n\
             }}"
        ),
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        Shape::Unit => format!(
                            "{name}::{vn} => {VAL}::Str(::std::string::String::from({vn:?})),"
                        ),
                        Shape::Newtype => format!(
                            "{name}::{vn}(f0) => {VAL}::Map(::std::vec![(::std::string::String::from({vn:?}), ::serde::Serialize::to_value(f0))]),"
                        ),
                        Shape::Named(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            let pairs: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from({n:?}), ::serde::Serialize::to_value({n}))",
                                        n = f.name
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {b} }} => {VAL}::Map(::std::vec![(::std::string::String::from({vn:?}), {VAL}::Map(::std::vec![{p}]))]),",
                                b = binds.join(", "),
                                p = pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> {VAL} {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    }
}

/// Decoder expression for one named field out of map binding `m` (or, for
/// a flattened field, out of the whole map value `v`).
fn named_field_decoder(owner: &str, f: &Field) -> String {
    if f.attrs.flatten {
        return format!("{}: ::serde::Deserialize::from_value(v)?", f.name);
    }
    let missing = if f.attrs.default {
        "::std::default::Default::default()".to_string()
    } else {
        format!(
            "return ::std::result::Result::Err(::serde::Error::missing({:?}, {owner:?}))",
            f.name
        )
    };
    format!(
        "{n}: match ::serde::value::get(m, {n:?}) {{\n\
             ::std::option::Option::Some(x) => ::serde::Deserialize::from_value(x).map_err(|e| e.in_field({n:?}))?,\n\
             ::std::option::Option::None => {missing},\n\
         }}",
        n = f.name
    )
}

fn gen_deserialize(item: &Item) -> String {
    let body = match item {
        Item::Struct { name, fields } => {
            let decoders: Vec<String> = fields
                .iter()
                .map(|f| named_field_decoder(name, f))
                .collect();
            format!(
                "let m = v.as_map().ok_or_else(|| ::serde::Error::expected(\"map\", {name:?}))?;\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                decoders.join(", ")
            )
        }
        Item::Newtype { name } => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, Shape::Unit))
                .map(|v| {
                    format!(
                        "{vn:?} => ::std::result::Result::Ok({name}::{vn}),",
                        vn = v.name
                    )
                })
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        Shape::Unit => None,
                        Shape::Newtype => Some(format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::from_value(inner)?)),"
                        )),
                        Shape::Named(fields) => {
                            let owner = format!("{name}::{vn}");
                            let decoders: Vec<String> = fields
                                .iter()
                                .map(|f| named_field_decoder(&owner, f))
                                .collect();
                            Some(format!(
                                "{vn:?} => {{\n\
                                     let m = inner.as_map().ok_or_else(|| ::serde::Error::expected(\"map\", {vn:?}))?;\n\
                                     ::std::result::Result::Ok({name}::{vn} {{ {} }})\n\
                                 }}",
                                decoders.join(", ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match v {{\n\
                     {VAL}::Str(s) => match s.as_str() {{\n\
                         {units}\n\
                         other => ::std::result::Result::Err(::serde::Error(::std::format!(\"unknown {name} variant `{{other}}`\"))),\n\
                     }},\n\
                     {VAL}::Map(m) if m.len() == 1 => {{\n\
                         let (tag, inner) = &m[0];\n\
                         match tag.as_str() {{\n\
                             {datas}\n\
                             other => ::std::result::Result::Err(::serde::Error(::std::format!(\"unknown {name} variant `{{other}}`\"))),\n\
                         }}\n\
                     }}\n\
                     _ => ::std::result::Result::Err(::serde::Error::expected(\"string or 1-key map\", {name:?})),\n\
                 }}",
                units = unit_arms.join("\n"),
                datas = data_arms.join("\n"),
            )
        }
    };
    let name = match item {
        Item::Struct { name, .. } | Item::Newtype { name } | Item::Enum { name, .. } => name,
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             #[allow(unused_variables)]\n\
             fn from_value(v: &{VAL}) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
