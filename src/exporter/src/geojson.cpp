#include "sunchase/exporter/geojson.h"

#include <cstdio>
#include <sstream>

#include "sunchase/common/json_text.h"

namespace sunchase::exporter {

namespace {

std::string coord(geo::LatLon p) {
  char buf[64];
  // GeoJSON order is [longitude, latitude]; 7 decimals ~ 1 cm.
  std::snprintf(buf, sizeof buf, "[%.7f,%.7f]", p.lon_deg, p.lat_deg);
  return buf;
}

std::string properties_json(const Properties& properties) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [key, value] : properties) {
    if (!first) out << ',';
    first = false;
    out << common::json_quote(key) << ':' << common::json_quote(value);
  }
  out << '}';
  return out.str();
}

std::string line_feature(const std::vector<geo::LatLon>& points,
                         const Properties& properties) {
  std::ostringstream out;
  out << R"({"type":"Feature","properties":)" << properties_json(properties)
      << R"(,"geometry":{"type":"LineString","coordinates":[)";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i) out << ',';
    out << coord(points[i]);
  }
  out << "]}}";
  return out.str();
}

std::string polygon_feature(const std::vector<geo::LatLon>& ring,
                            const Properties& properties) {
  std::ostringstream out;
  out << R"({"type":"Feature","properties":)" << properties_json(properties)
      << R"(,"geometry":{"type":"Polygon","coordinates":[[)";
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (i) out << ',';
    out << coord(ring[i]);
  }
  if (!ring.empty()) out << ',' << coord(ring.front());  // close the ring
  out << "]]}}";
  return out.str();
}

std::string collection(const std::vector<std::string>& features) {
  std::ostringstream out;
  out << R"({"type":"FeatureCollection","features":[)";
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (i) out << ',';
    out << features[i];
  }
  out << "]}";
  return out.str();
}

std::string fixed(double v, int decimals = 2) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::vector<geo::LatLon> route_points(const roadnet::RoadGraph& graph,
                                      const roadnet::Path& path) {
  std::vector<geo::LatLon> points;
  for (const roadnet::NodeId n : path_nodes(path, graph))
    points.push_back(graph.node(n).position);
  return points;
}

}  // namespace

std::string geojson_route(const roadnet::RoadGraph& graph,
                          const roadnet::Path& path,
                          const Properties& properties) {
  return collection({line_feature(route_points(graph, path), properties)});
}

std::string geojson_graph(const roadnet::RoadGraph& graph) {
  std::vector<std::string> features;
  features.reserve(graph.edge_count());
  for (roadnet::EdgeId e = 0; e < graph.edge_count(); ++e) {
    const auto& edge = graph.edge(e);
    features.push_back(line_feature(
        {graph.node(edge.from).position, graph.node(edge.to).position},
        {{"edge", std::to_string(e)},
         {"from", std::to_string(edge.from)},
         {"to", std::to_string(edge.to)},
         {"length_m", fixed(edge.length.value(), 1)}}));
  }
  return collection(features);
}

std::string geojson_scene(const shadow::Scene& scene) {
  const auto& proj = scene.projection();
  std::vector<std::string> features;
  auto ring_of = [&](const geo::Polygon& poly) {
    std::vector<geo::LatLon> ring;
    ring.reserve(poly.size());
    for (const geo::Vec2& v : poly.vertices) ring.push_back(proj.to_geo(v));
    return ring;
  };
  for (const shadow::Building& b : scene.buildings())
    features.push_back(polygon_feature(
        ring_of(b.footprint),
        {{"kind", "building"}, {"height_m", fixed(b.height_m, 1)}}));
  for (const shadow::Tree& t : scene.trees())
    features.push_back(polygon_feature(
        ring_of(geo::regular_polygon(t.center, t.radius_m, 8)),
        {{"kind", "tree"}, {"height_m", fixed(t.height_m, 1)}}));
  return collection(features);
}

std::string geojson_explained_route(const roadnet::RoadGraph& graph,
                                    const core::RouteLedger& ledger) {
  std::vector<std::string> features;
  features.reserve(ledger.steps.size());
  for (std::size_t i = 0; i < ledger.steps.size(); ++i) {
    const core::ExplainStep& s = ledger.steps[i];
    features.push_back(line_feature(
        {graph.node(s.from).position, graph.node(s.to).position},
        {{"kind", "explain-step"},
         {"seq", std::to_string(i)},
         {"edge", std::to_string(s.edge)},
         {"entry", s.entry.to_string()},
         {"slot", std::to_string(s.slot)},
         {"length_m", fixed(s.length.value(), 1)},
         {"speed_kmh", fixed(to_kmh(s.speed), 1)},
         {"shade_ratio", fixed(s.shade_ratio, 4)},
         {"travel_time_s", fixed(s.travel_time.value(), 3)},
         {"solar_time_s", fixed(s.solar_time.value(), 3)},
         {"energy_in_wh", fixed(s.energy_in.value(), 4)},
         {"energy_out_wh", fixed(s.energy_out.value(), 4)},
         {"cum_travel_time_s", fixed(s.cumulative.travel_time.value(), 3)},
         {"cum_energy_in_wh", fixed(s.cumulative_energy_in.value(), 4)},
         {"cum_energy_out_wh",
          fixed(s.cumulative.energy_out.value(), 4)}}));
  }
  return collection(features);
}

std::string geojson_plan(const roadnet::RoadGraph& graph,
                         const core::PlanResult& plan) {
  std::vector<std::string> features;
  for (const core::CandidateRoute& cand : plan.candidates) {
    Properties props{
        {"kind", cand.is_shortest_time ? "shortest-time" : "better-solar"},
        {"travel_time_s", fixed(cand.metrics.travel_time.value(), 1)},
        {"length_m", fixed(cand.metrics.total_length.value(), 0)},
        {"energy_in_wh", fixed(cand.metrics.energy_in.value())},
        {"energy_out_wh", fixed(cand.metrics.energy_out.value())}};
    if (!cand.is_shortest_time)
      props["extra_energy_wh"] = fixed(cand.extra_energy.value());
    features.push_back(
        line_feature(route_points(graph, cand.route.path), props));
  }
  return collection(features);
}

}  // namespace sunchase::exporter
