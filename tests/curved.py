"""Curved configurations over the plane that several test modules build:
each takes its field, so the same members and candidates can be detected
over Q and over a prime field."""

from jointslab.config import Family, detect_joints
from jointslab.field import FieldSpec
from jointslab.poly import parse_poly
from jointslab.varieties import VarietySpec

from oracles import identity_map

FQ = FieldSpec("rational")


def line(point, direction):
    return VarietySpec(kind="flat", ambient=2, dim=1, degree=1, point=point,
                       directions=(direction,))


def plane_curve(Ff, text, degree):
    """The hypersurface of the plane with equation ``text`` = 0."""
    return VarietySpec(kind="hypersurface", ambient=2, dim=1, degree=degree,
                       point=(0, 0), directions=((1, 0), (0, 1)),
                       surface_poly=parse_poly(text, Ff, 2))


def circle_and_lines(Ff=FQ):
    members = [plane_curve(Ff, "1 * x1^2 + 1 * x2^2 + -25", 2),
               line((3, 0), (0, 1)), line((0, 4), (1, 0))]
    return detect_joints(Ff, [Family(1, 2, members)], candidates=[(3, 4), (3, -4), (-3, 4)])


def parabola_and_circle(Ff):
    """The parabola x2 = x1^2 (a graph) and the circle x1^2 + x2^2 = 2 x2
    (a hypersurface) meet transversally at (1, 1) and (-1, 1); the line
    x1 = 0 meets both at (0, 0)."""
    parabola = VarietySpec(kind="graph", ambient=2, dim=1, degree=2,
                           frame=identity_map(Ff, 2),
                           graph_polys=(parse_poly("1 * x1^2", Ff, 1),))
    members = [parabola, plane_curve(Ff, "1 * x1^2 + 1 * x2^2 + -2 * x2", 2),
               line((0, 0), (0, 1))]
    return detect_joints(Ff, [Family(1, 2, members)], candidates=[(0, 0), (1, 1), (-1, 1)])


def curved_plane_config(Ff=FQ):
    """Four curves through the origin of the plane: the circle
    x1^2 + x2^2 = x2 and the line x2 = 0 (both tangent to the x1-axis),
    the line x1 = 0, and the cusp x2^2 = x1^3, singular at the origin."""
    members = [
        plane_curve(Ff, "1 * x1^2 + 1 * x2^2 + -1 * x2", 2),
        line((0, 0), (1, 0)),
        line((0, 0), (0, 1)),
        plane_curve(Ff, "1 * x2^2 + -1 * x1^3", 3),
    ]
    return detect_joints(Ff, [Family(k=1, m=2, members=members)],
                         candidates=[(0, 0), (0, 1), (1, 1)])
