//! The DXE driver executable format (the PE/COFF analog).
//!
//! A driver binary consists of a header, a text section, an initialized data
//! section, an uninitialized (bss) size, and an import table naming the
//! kernel exports the driver calls. DDT loads only this artifact — the
//! assembly source never reaches the tool, which is what makes the drivers
//! "closed-source" (DESIGN.md §2).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// Magic bytes identifying a DXE image.
pub const DXE_MAGIC: &[u8; 4] = b"DXE1";

/// An entry in the import table: a kernel export used by the driver.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Import {
    /// Kernel export table id (determines the trap address).
    pub export_id: u16,
    /// Export name, for reports and Table 1 accounting.
    pub name: String,
}

/// A loadable driver binary.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DxeImage {
    /// Driver name (from the `.name` directive; shown in bug reports).
    pub name: String,
    /// Address the image must be loaded at.
    pub load_base: u32,
    /// Absolute address of the `DriverEntry` routine.
    pub entry: u32,
    /// Machine code.
    pub text: Vec<u8>,
    /// Initialized data, placed immediately after text (8-byte aligned).
    pub data: Vec<u8>,
    /// Size in bytes of zero-initialized memory after data.
    pub bss_size: u32,
    /// Kernel exports referenced by the driver.
    pub imports: Vec<Import>,
}

/// Errors produced when decoding a DXE image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageError {
    /// The magic bytes were wrong.
    BadMagic,
    /// The image was truncated or a length field was inconsistent.
    Truncated,
    /// A string field was not valid UTF-8.
    BadString,
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::BadMagic => write!(f, "bad DXE magic"),
            ImageError::Truncated => write!(f, "truncated DXE image"),
            ImageError::BadString => write!(f, "invalid UTF-8 in DXE string"),
        }
    }
}

impl std::error::Error for ImageError {}

impl DxeImage {
    /// Address of the first byte after the text section (data starts here,
    /// rounded up to 8 bytes).
    pub fn data_base(&self) -> u32 {
        let end = self.load_base + self.text.len() as u32;
        (end + 7) & !7
    }

    /// Address of the first byte of bss (8-byte aligned).
    pub fn bss_base(&self) -> u32 {
        (self.data_base() + self.data.len() as u32 + 7) & !7
    }

    /// First address past the loaded image.
    pub fn image_end(&self) -> u32 {
        self.bss_base() + self.bss_size
    }

    /// The address range occupied by the text section.
    pub fn text_range(&self) -> std::ops::Range<u32> {
        self.load_base..self.load_base + self.text.len() as u32
    }

    /// Total size of the on-disk binary file.
    pub fn file_size(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes to the on-disk format.
    pub fn to_bytes(&self) -> Bytes {
        let mut b = BytesMut::new();
        b.put_slice(DXE_MAGIC);
        b.put_u8(self.name.len() as u8);
        b.put_slice(self.name.as_bytes());
        b.put_u32_le(self.load_base);
        b.put_u32_le(self.entry);
        b.put_u32_le(self.text.len() as u32);
        b.put_u32_le(self.data.len() as u32);
        b.put_u32_le(self.bss_size);
        b.put_u32_le(self.imports.len() as u32);
        b.put_slice(&self.text);
        b.put_slice(&self.data);
        for imp in &self.imports {
            b.put_u16_le(imp.export_id);
            b.put_u8(imp.name.len() as u8);
            b.put_slice(imp.name.as_bytes());
        }
        b.freeze()
    }

    /// Parses the on-disk format.
    pub fn from_bytes(raw: &[u8]) -> Result<DxeImage, ImageError> {
        let mut b = raw;
        fn need(b: &[u8], n: usize) -> Result<(), ImageError> {
            if b.remaining() < n {
                Err(ImageError::Truncated)
            } else {
                Ok(())
            }
        }
        need(b, 5)?;
        let mut magic = [0u8; 4];
        b.copy_to_slice(&mut magic);
        if &magic != DXE_MAGIC {
            return Err(ImageError::BadMagic);
        }
        let name_len = b.get_u8() as usize;
        need(b, name_len)?;
        let name = String::from_utf8(b[..name_len].to_vec())
            .map_err(|_| ImageError::BadString)?;
        b.advance(name_len);
        need(b, 24)?;
        let load_base = b.get_u32_le();
        let entry = b.get_u32_le();
        let text_len = b.get_u32_le() as usize;
        let data_len = b.get_u32_le() as usize;
        let bss_size = b.get_u32_le();
        let import_count = b.get_u32_le() as usize;
        need(b, text_len + data_len)?;
        let text = b[..text_len].to_vec();
        b.advance(text_len);
        let data = b[..data_len].to_vec();
        b.advance(data_len);
        let mut imports = Vec::with_capacity(import_count);
        for _ in 0..import_count {
            need(b, 3)?;
            let export_id = b.get_u16_le();
            let ilen = b.get_u8() as usize;
            need(b, ilen)?;
            let iname =
                String::from_utf8(b[..ilen].to_vec()).map_err(|_| ImageError::BadString)?;
            b.advance(ilen);
            imports.push(Import { export_id, name: iname });
        }
        Ok(DxeImage { name, load_base, entry, text, data, bss_size, imports })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DxeImage {
        DxeImage {
            name: "rtl8029".into(),
            load_base: 0x40_0000,
            entry: 0x40_0008,
            text: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
            data: vec![0xaa; 12],
            bss_size: 64,
            imports: vec![
                Import { export_id: 3, name: "NdisAllocateMemoryWithTag".into() },
                Import { export_id: 9, name: "NdisMRegisterMiniport".into() },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let img = sample();
        let bytes = img.to_bytes();
        let back = DxeImage::from_bytes(&bytes).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn layout_addresses() {
        let img = sample();
        assert_eq!(img.data_base(), 0x40_0010, "text is 16 bytes, aligned to 8");
        assert_eq!(img.bss_base(), 0x40_0020, "bss aligns to 8");
        assert_eq!(img.image_end(), 0x40_0020 + 64);
        assert!(img.text_range().contains(&img.entry));
    }

    #[test]
    fn data_base_alignment() {
        let mut img = sample();
        img.text = vec![0; 9];
        assert_eq!(img.data_base() % 8, 0);
        assert!(img.data_base() >= img.load_base + 9);
    }

    #[test]
    fn bad_magic_rejected() {
        let img = sample();
        let mut bytes = img.to_bytes().to_vec();
        bytes[0] = b'X';
        assert_eq!(DxeImage::from_bytes(&bytes), Err(ImageError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let img = sample();
        let bytes = img.to_bytes();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert_eq!(
                DxeImage::from_bytes(&bytes[..cut]),
                Err(ImageError::Truncated),
                "cut at {cut}"
            );
        }
    }
}
