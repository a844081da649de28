//! SVG rendering of floorplans — outlines, module rectangles, centers
//! and pads — for eyeballing results and documenting experiments.

use crate::geometry::Rect;
use crate::Outline;

/// Styling options for [`render`].
#[derive(Debug, Clone)]
pub struct SvgStyle {
    /// Whether to draw module indices.
    pub labels: bool,
}

impl Default for SvgStyle {
    fn default() -> Self {
        SvgStyle { labels: true }
    }
}

/// Canvas width in pixels (height follows the outline aspect).
const CANVAS_WIDTH: f64 = 640.0;
/// Fill color for module rectangles.
const MODULE_FILL: &str = "#9ecae1";
/// Stroke color for module rectangles.
const MODULE_STROKE: &str = "#3182bd";

/// Renders a floorplan to an SVG document string.
///
/// `rects` are the placed modules; `pads` are drawn as small diamonds
/// on the boundary. The y axis is flipped so the origin sits at the
/// lower left, matching floorplan convention.
pub fn render(outline: &Outline, rects: &[Rect], pads: &[(f64, f64)], style: &SvgStyle) -> String {
    let scale = CANVAS_WIDTH / outline.width;
    let height = outline.height * scale;
    let flip_y = |y: f64, h: f64| height - (y + h) * scale;
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.2} {:.2}\">\n",
        CANVAS_WIDTH + 20.0,
        height + 20.0,
        CANVAS_WIDTH + 20.0,
        height + 20.0
    ));
    svg.push_str("<g transform=\"translate(10,10)\">\n");
    svg.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{:.2}\" height=\"{:.2}\" fill=\"none\" stroke=\"#444\" stroke-width=\"1.5\"/>\n",
        outline.width * scale,
        height
    ));
    for (i, r) in rects.iter().enumerate() {
        svg.push_str(&format!(
            "<rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" fill=\"{}\" stroke=\"{}\" stroke-width=\"0.8\" fill-opacity=\"0.75\"/>\n",
            r.x * scale,
            flip_y(r.y, r.h),
            r.w * scale,
            r.h * scale,
            MODULE_FILL,
            MODULE_STROKE
        ));
        if style.labels {
            let (cx, cy) = r.center();
            svg.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"10\" text-anchor=\"middle\" fill=\"#222\">{}</text>\n",
                cx * scale,
                flip_y(cy, 0.0) + 3.0,
                i
            ));
        }
    }
    for &(px, py) in pads {
        svg.push_str(&format!(
            "<circle cx=\"{:.2}\" cy=\"{:.2}\" r=\"2.5\" fill=\"#e6550d\"/>\n",
            px * scale,
            flip_y(py, 0.0)
        ));
    }
    svg.push_str("</g>\n</svg>\n");
    svg
}

/// Renders module *centers* (a global floorplan, before shapes exist)
/// as circles of the modules' equivalent radii.
pub fn render_centers(
    outline: &Outline,
    centers: &[(f64, f64)],
    radii: &[f64],
    pads: &[(f64, f64)],
    style: &SvgStyle,
) -> String {
    assert_eq!(centers.len(), radii.len(), "centers/radii length mismatch");
    let scale = CANVAS_WIDTH / outline.width;
    let height = outline.height * scale;
    let flip = |y: f64| height - y * scale;
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\">\n<g transform=\"translate(10,10)\">\n",
        CANVAS_WIDTH + 20.0,
        height + 20.0
    ));
    svg.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{:.2}\" height=\"{:.2}\" fill=\"none\" stroke=\"#444\"/>\n",
        outline.width * scale,
        height
    ));
    for (i, (&(x, y), &r)) in centers.iter().zip(radii.iter()).enumerate() {
        svg.push_str(&format!(
            "<circle cx=\"{:.2}\" cy=\"{:.2}\" r=\"{:.2}\" fill=\"{}\" fill-opacity=\"0.5\" stroke=\"{}\"/>\n",
            x * scale,
            flip(y),
            r * scale,
            MODULE_FILL,
            MODULE_STROKE
        ));
        if style.labels {
            svg.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"10\" text-anchor=\"middle\">{}</text>\n",
                x * scale,
                flip(y) + 3.0,
                i
            ));
        }
    }
    for &(px, py) in pads {
        svg.push_str(&format!(
            "<circle cx=\"{:.2}\" cy=\"{:.2}\" r=\"2.5\" fill=\"#e6550d\"/>\n",
            px * scale,
            flip(py)
        ));
    }
    svg.push_str("</g>\n</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_wellformed_svg() {
        let outline = Outline::new(100.0, 50.0);
        let rects = vec![Rect::new(0.0, 0.0, 20.0, 10.0), Rect::new(30.0, 20.0, 10.0, 25.0)];
        let pads = vec![(0.0, 25.0), (100.0, 25.0)];
        let svg = render(&outline, &rects, &pads, &SvgStyle::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 3); // outline + 2 modules
        assert_eq!(svg.matches("<circle").count(), 2); // pads
        assert_eq!(svg.matches("<text").count(), 2); // labels
    }

    #[test]
    fn labels_can_be_disabled() {
        let outline = Outline::new(10.0, 10.0);
        let rects = vec![Rect::new(0.0, 0.0, 5.0, 5.0)];
        let style = SvgStyle { labels: false };
        let svg = render(&outline, &rects, &[], &style);
        assert_eq!(svg.matches("<text").count(), 0);
    }

    #[test]
    fn center_rendering_draws_circles() {
        let outline = Outline::new(10.0, 10.0);
        let svg = render_centers(
            &outline,
            &[(3.0, 3.0), (7.0, 7.0)],
            &[1.0, 2.0],
            &[(0.0, 5.0)],
            &SvgStyle::default(),
        );
        assert_eq!(svg.matches("<circle").count(), 3); // 2 modules + 1 pad
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn center_rendering_checks_lengths() {
        let outline = Outline::new(10.0, 10.0);
        let _ = render_centers(&outline, &[(1.0, 1.0)], &[1.0, 2.0], &[], &SvgStyle::default());
    }
}
