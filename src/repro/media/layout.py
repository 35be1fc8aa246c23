"""Video layouts: gallery and speaker mode, and the tile sizes they imply.

Section 6 of the paper shows that network utilization in multi-party calls is
driven by the *video layout*: each client displays the other participants in
tiles, the tile size determines the resolution the client asks the server
for, and the server in turn caps what each sender needs to upload.  Three
layout policies explain the measured trends:

* **Zoom** uses a tiled grid that grows with the participant count: with up
  to four participants the grid is 2x2 and tiles are large enough to warrant
  the full-resolution stream; the fifth participant adds a third row, every
  tile shrinks, and upstream utilization halves (Figure 15b).
* **Meet** keeps larger tiles up to six participants and shrinks at seven,
  where the paper observes the uplink dropping from ~1 Mbps to ~0.2 Mbps as
  receivers fall back to the low simulcast copy.
* **Teams** (on Linux) always shows a fixed 2x2 grid of at most four remote
  participants, so its uplink stays flat as the roster grows.

In *speaker mode* the pinned participant occupies a large tile on everyone
else's screen, so that participant's uplink rises to a high-resolution stream
regardless of the roster size (Figure 15c).

The grid geometry helpers are exposed (and unit tested) because they justify
the per-VCA request tables: the transition points (Zoom at five participants,
Meet at seven) fall exactly where the 16:9 tile area crosses the next rung of
the sender's resolution ladder on the paper's 1366x768 laptop screens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from repro.media.codec import Resolution

__all__ = [
    "ViewMode",
    "LayoutSpec",
    "layout_for",
    "grid_dimensions",
    "tile_video_area",
    "SCREEN_RESOLUTION",
]

#: The laptops used in the paper: Dell Latitude 3300, 1366x768 screen.
SCREEN_RESOLUTION = Resolution(1366, 768)

#: Thumbnail shown for non-pinned participants in speaker mode.
THUMBNAIL = Resolution(320, 180)


class ViewMode(str, Enum):
    """The two viewing modes the paper studies."""

    GALLERY = "gallery"
    SPEAKER = "speaker"


@dataclass
class LayoutSpec:
    """The remote tiles one participant displays.

    ``tiles`` maps a displayed remote participant to the resolution requested
    for that participant's stream; participants not present in the mapping
    are not rendered (e.g. beyond Teams' four visible tiles) and therefore
    need not be forwarded at all.
    """

    viewer: str
    mode: ViewMode
    tiles: dict[str, Resolution] = field(default_factory=dict)

    @property
    def displayed(self) -> tuple[str, ...]:
        return tuple(self.tiles)


def grid_dimensions(vca: str, n_tiles: int) -> tuple[int, int]:
    """(columns, rows) of the gallery grid showing ``n_tiles`` videos.

    Zoom and Meet include the self view in the grid; Teams on Linux uses a
    fixed 2x2 grid of remote participants.
    """
    vca = vca.lower()
    if n_tiles <= 1:
        return 1, 1
    if vca == "teams":
        return 2, 2
    columns = math.ceil(math.sqrt(n_tiles))
    rows = math.ceil(n_tiles / columns)
    return columns, rows


def tile_video_area(screen: Resolution, columns: int, rows: int) -> Resolution:
    """The 16:9 video area that fits inside one grid cell of the screen."""
    cell_width = screen.width / columns
    cell_height = screen.height / rows
    width = min(cell_width, cell_height * 16.0 / 9.0)
    height = width * 9.0 / 16.0
    return Resolution(int(width), int(height))


def _zoom_gallery_request(n_participants: int) -> Resolution:
    """Resolution a Zoom receiver requests per tile in gallery mode.

    With up to four participants the 2x2 grid leaves tiles wider than 640
    pixels, so receivers still want the full-resolution SVC layers; from five
    participants on the third row shrinks tiles below 640x360 and the
    360p layer suffices -- the uplink drop at n=5 in Figure 15b.
    """
    if n_participants <= 4:
        return Resolution(1280, 720)
    if n_participants <= 9:
        return Resolution(640, 360)
    return Resolution(320, 180)


def _meet_gallery_request(n_participants: int) -> Resolution:
    """Resolution a Meet receiver requests per tile in gallery mode.

    Meet keeps the 640x360 simulcast copy on screen up to six participants;
    at seven the denser grid only warrants the 320x180 copy -- the uplink
    collapse at n=7 in Figure 15b.
    """
    if n_participants <= 6:
        return Resolution(640, 360)
    return Resolution(320, 180)


def _teams_gallery_request(n_participants: int) -> Resolution:
    """Teams' fixed four-tile layout always shows 640x360-sized tiles."""
    return Resolution(640, 360)


_GALLERY_REQUEST = {
    "zoom": _zoom_gallery_request,
    "meet": _meet_gallery_request,
    "teams": _teams_gallery_request,
}


def layout_for(
    vca: str,
    viewer: str,
    participants: Sequence[str],
    mode: ViewMode = ViewMode.GALLERY,
    pinned: Optional[str] = None,
    screen: Resolution = SCREEN_RESOLUTION,
) -> LayoutSpec:
    """Compute the layout one viewer uses and the per-tile resolutions.

    Parameters
    ----------
    vca:
        ``"zoom"``, ``"meet"`` or ``"teams"`` (layout rules differ).
    viewer:
        The participant whose screen is being laid out.
    participants:
        All call participants (including the viewer).
    mode:
        Gallery or speaker mode.
    pinned:
        The participant pinned full-screen in speaker mode.
    """
    vca = vca.lower()
    if vca not in _GALLERY_REQUEST:
        raise ValueError(f"unknown VCA {vca!r}; expected one of {sorted(_GALLERY_REQUEST)}")
    remotes = [p for p in participants if p != viewer]
    spec = LayoutSpec(viewer=viewer, mode=mode)
    if not remotes:
        return spec

    if mode is ViewMode.SPEAKER and pinned is not None and pinned != viewer:
        # The pinned speaker gets a near-full-screen tile; everyone else is a
        # small filmstrip thumbnail.
        spec.tiles[pinned] = Resolution(1280, 720)
        visible_others = remotes if vca != "teams" else remotes[:3]
        for name in visible_others:
            if name != pinned:
                spec.tiles[name] = THUMBNAIL
        return spec

    n_participants = len(participants)
    request = _GALLERY_REQUEST[vca](n_participants)
    visible = remotes[:4] if vca == "teams" else remotes
    for name in visible:
        spec.tiles[name] = request
    return spec
