//! The codec interface and the registry of the three built-in formats,
//! whose one matcher detects the format of a file or a byte stream.

use crate::decoder::TraceDecoder;
use std::io::{self, Read, Write};
use std::path::Path;
use workloads::event::Trace;

/// How many leading bytes [`CodecRegistry::detect_prefix`] hands to
/// [`TraceCodec::matches_magic`].
pub const SNIFF_LEN: usize = 16;

/// One on-disk trace format.
///
/// Encoding is an offline operation and works from a materialized
/// [`Trace`] (streaming recording writes `.ttr3` through
/// [`crate::Ttr3Writer`] directly); decoding is the hot ingestion path
/// and must stream — the returned [`TraceDecoder`] may hold the
/// static-branch table in memory but never the event stream.
pub trait TraceCodec: Send + Sync {
    /// Short format name, e.g. `"ttr3"`.
    fn name(&self) -> &'static str;

    /// One-line human description for CLI listings.
    fn description(&self) -> &'static str;

    /// File extensions (lower-case, no dot) this codec claims.
    fn extensions(&self) -> &'static [&'static str];

    /// Whether the first [`SNIFF_LEN`] bytes of a file identify this
    /// format. A file that does not open with its format's magic (a
    /// hand-authored CSV that starts with a `#` comment) is matched by
    /// extension instead.
    fn matches_magic(&self, prefix: &[u8]) -> bool;

    /// Serializes `trace` to `w`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if the trace is not representable (e.g. a
    /// CSV trace name with control characters), `Unsupported` from a
    /// read-only format (`.ttr` v2), and any I/O error from the writer.
    fn encode(&self, w: &mut dyn Write, trace: &Trace) -> io::Result<()>;

    /// Opens `path` as a streaming event source. Codecs that do not embed
    /// trace metadata derive name/category from the file name (see
    /// [`file_meta`]).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for corrupt or mismatched content and any I/O
    /// error from opening or reading the file.
    fn open(&self, path: &Path) -> io::Result<Box<dyn TraceDecoder + Send>>;

    /// Opens a decoder over a *non-seekable* byte stream — the network
    /// ingestion entry point (see [`crate::feed`]). Codecs whose layout
    /// decodes front-to-back (`.ttr` v2, CSV) override this and return
    /// [`FeedOpen::Streaming`]; a format that needs random access (`.ttr`
    /// v3's table-at-end trailer) keeps the default, which hands the
    /// reader back as [`FeedOpen::NeedsSpool`] so
    /// [`CodecRegistry::open_feed`] can spool it to disk first. The
    /// fallback name/category play the role [`file_meta`] plays in
    /// [`TraceCodec::open`] for codecs that do not embed metadata.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for corrupt header bytes and any I/O error
    /// from the reader.
    fn open_stream(
        &self,
        reader: Box<dyn Read + Send>,
        fallback_name: String,
        fallback_category: String,
    ) -> io::Result<crate::feed::FeedOpen> {
        let _ = (fallback_name, fallback_category);
        Ok(crate::feed::FeedOpen::NeedsSpool(reader))
    }
}

/// Derives `(name, category)` from a trace file name: the name is the file
/// stem, the category its leading alphabetic prefix upper-cased (so
/// `client02.ttr` groups under `CLIENT` exactly like the synthetic suite).
/// Falls back to `("trace", "TRACE")` for unusable stems.
pub fn file_meta(path: &Path) -> (String, String) {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    if stem.is_empty() {
        return ("trace".to_string(), "TRACE".to_string());
    }
    let prefix: String =
        stem.chars().take_while(|c| c.is_ascii_alphabetic()).collect::<String>().to_uppercase();
    let category = if prefix.is_empty() { "TRACE".to_string() } else { prefix };
    (stem.to_string(), category)
}

/// The codec registry: detects a file's or a stream's format by magic
/// bytes first, extension second.
pub struct CodecRegistry {
    codecs: Vec<Box<dyn TraceCodec>>,
}

impl CodecRegistry {
    /// The built-in formats: `.ttr` v2 (read-only), `.ttr3`
    /// block-compressed, CSV. Earlier entries win magic/extension ties.
    pub fn standard() -> Self {
        Self {
            codecs: vec![
                Box::new(crate::ttr::TtrCodec),
                Box::new(crate::ttr3::Ttr3Codec),
                Box::new(crate::csv::CsvCodec),
            ],
        }
    }

    /// All registered codecs.
    pub fn codecs(&self) -> impl Iterator<Item = &dyn TraceCodec> {
        self.codecs.iter().map(Box::as_ref)
    }

    /// Looks a codec up by its [`TraceCodec::name`].
    pub fn by_name(&self, name: &str) -> Option<&dyn TraceCodec> {
        self.codecs().find(|c| c.name() == name)
    }

    /// The codec claiming `path`'s extension, if any.
    pub fn by_extension(&self, path: &Path) -> Option<&dyn TraceCodec> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        self.codecs().find(|c| c.extensions().contains(&ext.as_str()))
    }

    /// The format matcher behind every detection: the first codec whose
    /// magic matches `prefix` (up to [`SNIFF_LEN`] bytes), else the codec
    /// claiming `name_hint`'s extension.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when no codec claims the prefix or the
    /// hinted extension.
    pub fn detect_prefix(
        &self,
        prefix: &[u8],
        name_hint: Option<&Path>,
    ) -> io::Result<&dyn TraceCodec> {
        let sniff = &prefix[..prefix.len().min(SNIFF_LEN)];
        if let Some(c) = self.codecs().find(|c| c.matches_magic(sniff)) {
            return Ok(c);
        }
        if let Some(c) = name_hint.and_then(|hint| self.by_extension(hint)) {
            return Ok(c);
        }
        let source =
            name_hint.map_or_else(|| "trace stream".to_string(), |h| h.display().to_string());
        let known: Vec<&str> = self.codecs().map(|c| c.name()).collect();
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{source}: unrecognized trace format (known: {})", known.join(", ")),
        ))
    }

    /// Detects the format of an existing file: [`CodecRegistry::detect_prefix`]
    /// over its first [`SNIFF_LEN`] bytes, with its path as the name hint.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when no codec claims the file, plus any I/O
    /// error from reading the prefix.
    pub fn detect(&self, path: &Path) -> io::Result<&dyn TraceCodec> {
        let prefix = read_prefix(&mut std::fs::File::open(path)?)?;
        self.detect_prefix(&prefix, Some(path))
    }

    /// Detects the format of `path` and opens it as a streaming source.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecRegistry::detect`] and [`TraceCodec::open`]
    /// errors.
    pub fn open(&self, path: &Path) -> io::Result<Box<dyn TraceDecoder + Send>> {
        self.detect(path)?.open(path)
    }
}

/// Reads up to [`SNIFF_LEN`] leading bytes, fewer only at end of input:
/// the prefix every detection sniffs, from a file or a live stream.
pub(crate) fn read_prefix(reader: &mut dyn Read) -> io::Result<Vec<u8>> {
    let mut prefix = Vec::with_capacity(SNIFF_LEN);
    reader.take(SNIFF_LEN as u64).read_to_end(&mut prefix)?;
    Ok(prefix)
}

impl Default for CodecRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn file_meta_splits_prefix() {
        assert_eq!(
            file_meta(Path::new("/tmp/CLIENT02.ttr")),
            ("CLIENT02".to_string(), "CLIENT".to_string())
        );
        assert_eq!(
            file_meta(Path::new("ws7-recorded.csv")),
            ("ws7-recorded".to_string(), "WS".to_string())
        );
        assert_eq!(file_meta(Path::new("1234.ttr3")), ("1234".to_string(), "TRACE".to_string()));
        assert_eq!(file_meta(Path::new("")), ("trace".to_string(), "TRACE".to_string()));
    }

    #[test]
    fn standard_registry_has_three_codecs() {
        let r = CodecRegistry::standard();
        let names: Vec<&str> = r.codecs().map(|c| c.name()).collect();
        assert_eq!(names, ["ttr", "ttr3", "csv"]);
        assert!(r.by_name("ttr").is_some());
        assert!(r.by_name("ttr3").is_some());
        assert!(r.by_name("nope").is_none());
    }

    #[test]
    fn extension_lookup_is_case_insensitive() {
        let r = CodecRegistry::standard();
        assert_eq!(r.by_extension(&PathBuf::from("x.TTR")).unwrap().name(), "ttr");
        assert_eq!(r.by_extension(&PathBuf::from("x.csv")).unwrap().name(), "csv");
        assert!(r.by_extension(&PathBuf::from("x.bin")).is_none());
        assert!(r.by_extension(&PathBuf::from("noext")).is_none());
    }

    #[test]
    fn detect_rejects_unknown_files() {
        let dir = std::env::temp_dir().join(format!("tage-traces-detect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("garbage.bin");
        std::fs::write(&p, b"no codec claims this").unwrap();
        let r = CodecRegistry::standard();
        assert!(r.detect(&p).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
