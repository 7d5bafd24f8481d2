// Fixture: the same P_noc sum with its marker present.
struct Node {
  double pnoc_log = 0.0;
};
double SumPnoc(const Node* nodes, int n) {
  double pnoc_log = 0.0;
  for (int i = 0; i < n; ++i) {
    // order-sensitive: node order, as the rescan sums it.
    pnoc_log += nodes[i].pnoc_log;
  }
  return pnoc_log;
}
