//! Duration formatting for the Table 4 cost columns.

/// Format seconds the way the paper's Table 4 does: days / hours /
/// minutes / seconds / milliseconds with two decimals.
pub fn format_duration(seconds: f64) -> String {
    if seconds >= 86_400.0 {
        format!("{:.2} day", seconds / 86_400.0)
    } else if seconds >= 3_600.0 {
        format!("{:.2} h", seconds / 3_600.0)
    } else if seconds >= 60.0 {
        format!("{:.2} min", seconds / 60.0)
    } else if seconds >= 1.0 {
        format!("{:.2} s", seconds)
    } else {
        format!("{:.2} ms", seconds * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_bands() {
        assert_eq!(format_duration(2.0 * 86_400.0), "2.00 day");
        assert_eq!(format_duration(7_200.0), "2.00 h");
        assert_eq!(format_duration(90.0), "1.50 min");
        assert_eq!(format_duration(2.47), "2.47 s");
        assert_eq!(format_duration(0.036), "36.00 ms");
    }
}
