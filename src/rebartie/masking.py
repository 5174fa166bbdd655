"""Plane-mask generation: near-plane selection, rasterization, and
background removal on the RGB image."""

import numpy as np

from .cloud import PointCloud
from .errors import BadParameter, MissingProvenance, SizeMismatch
from .geometry import plane_signed_distance, project
from .maxfilter import square_max
from .pnm import read_pgm, write_pgm


def select_near_plane(cloud, plane, tau=0.015):
    """Keep points within tau of the plane (absolute signed distance)."""
    if tau <= 0:
        raise BadParameter("tau must be positive")
    dist = plane_signed_distance(plane, cloud.points)
    return cloud.take(np.abs(dist) <= tau)


def rasterize_mask(selected, width, height, dilation_radius=2):
    """Rasterize a cloud's provenance pixels into a boolean mask.

    Each source pixel is set true, then dilated with a square structuring
    element of the given radius (0 = no dilation).
    """
    if dilation_radius < 0:
        raise BadParameter("dilation_radius must be >= 0")
    if selected.provenance is None:
        raise MissingProvenance("cloud has no source-pixel provenance")
    mask = np.zeros((height, width), dtype=bool)
    if not len(selected):
        return mask
    us = selected.provenance[:, 0].astype(int)
    vs = selected.provenance[:, 1].astype(int)
    u0, u1, v0, v1 = us.min(), us.max(), vs.min(), vs.max()
    if u0 < 0 or u1 >= width or v0 < 0 or v1 >= height:
        raise ValueError("provenance pixel outside image bounds")
    mask[vs, us] = True
    if dilation_radius > 0:
        # a square dilation is the maximum over the square, zero outside;
        # no pixel farther than the radius from the set pixels' bounding box
        # can change, so only that box, grown by the radius, is filtered
        r = dilation_radius
        box = np.s_[max(v0 - r, 0) : v1 + r + 1, max(u0 - r, 0) : u1 + r + 1]
        mask[box] = square_max(mask[box], 2 * r + 1, False)
    return mask


def apply_mask(image, mask):
    """Black out image pixels where the mask is false (an integer image:
    each channel is multiplied by the mask's 0 or 1)."""
    image = np.asarray(image)
    mask = np.asarray(mask, dtype=bool)
    if image.shape[:2] != mask.shape:
        raise SizeMismatch(f"image {image.shape[:2]} vs mask {mask.shape}")
    return image * mask[..., None].astype(image.dtype)


def attach_projected_provenance(cloud, cam):
    """Rebuild provenance by projecting points through the camera.

    Serialized clouds (and voxel centroids) carry no source pixels; this
    recovers them for mask rasterization. Points behind the camera or
    projecting outside the image are dropped, the test made on the rounded
    float pixel, so a point whose projection overflows or lies beyond the
    integer range is dropped too.
    """
    pts = cloud.points
    front = pts[:, 2] > 0
    uv = np.full((pts.shape[0], 2), -1.0)
    if front.any():
        with np.errstate(over="ignore"):  # an overflow is inf, outside the frame
            uv[front] = project(cam, pts[front])
    pix = np.floor(uv + 0.5)
    ok = (
        front
        & (pix[:, 0] >= 0)
        & (pix[:, 0] < cam.width)
        & (pix[:, 1] >= 0)
        & (pix[:, 1] < cam.height)
    )
    return PointCloud(pts[ok], pix[ok].astype(int))


def write_mask(path, mask):
    """Mask file: binary PGM, 0 = false, 255 = true."""
    write_pgm(path, np.asarray(mask, dtype=bool).astype(np.uint8) * 255)


def read_mask(path):
    return read_pgm(path) > 0
