// Fixture: an ordered P_noc sum outside any kernel consumer, no marker.
struct Node {
  double pnoc_log = 0.0;
};
double SumPnoc(const Node* nodes, int n) {
  double pnoc_log = 0.0;
  for (int i = 0; i < n; ++i) pnoc_log += nodes[i].pnoc_log;
  return pnoc_log;
}
