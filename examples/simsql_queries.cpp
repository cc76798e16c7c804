// The paper's SimSQL code, run as SQL. Section 5.2 presents the GMM's
// random tables in SimSQL's dialect; this example executes those snippets
// (lightly normalized) through the relational engine's SQL front end:
// hyperparameter views, the Dirichlet-VG initialization of clus_prob[0],
// and the recursive clus_prob[i] definition driven for several iterations.
//
//   $ ./build/examples/simsql_queries

#include <cstdio>

#include "common/str_format.h"
#include "reldb/sql.h"
#include "reldb/vg_library.h"
#include "sim/cluster_sim.h"
#include "stats/rng.h"

int main() {
  using namespace mlbench;
  using namespace mlbench::reldb;

  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(5));
  Database db(&sim, {}, 2014);
  SqlContext ctx(&db);
  DirichletVg diri("clus_id", "pi_prior");
  DirichletVg diri_rec("clus_id", "diri_para");
  ctx.RegisterVg("Dirichlet", &diri);

  // data(data_id, dim_id, data_val) and cluster(clus_id, pi_prior),
  // 200 points x 4 dims standing for 10M points/machine.
  stats::Rng rng(1);
  Table data(Schema{"data_id", "dim_id", "data_val"}, 5e7 / 200.0);
  for (std::int64_t p = 0; p < 200; ++p) {
    for (std::int64_t d = 0; d < 4; ++d) {
      data.Append(Tuple{p, d, rng.NextDouble() * 10.0});
    }
  }
  db.Put("data", std::move(data));
  Table cluster(Schema{"clus_id", "pi_prior"}, 1.0);
  for (std::int64_t k = 0; k < 10; ++k) cluster.Append(Tuple{k, 1.0});
  db.Put("cluster", std::move(cluster));
  Table members(Schema{"data_id", "clus_id"}, 5e7 / 200.0);
  for (std::int64_t p = 0; p < 200; ++p) members.Append(Tuple{p, p % 10});
  db.Put("membership[0]", std::move(members));

  // Section 5.2: "the vector mu_o is computed as the mean of the data set".
  auto mean = ctx.Execute(
      "CREATE VIEW mean_prior (dim_id, dim_val) AS "
      "SELECT dim_id, AVG(data_val) "
      "FROM data "
      "GROUP BY dim_id");
  std::printf("mean_prior: %s (%zu rows)\n",
              mean.ok() ? "ok" : mean.status().ToString().c_str(),
              mean.ok() ? mean->actual_rows() : 0);

  // Section 5.2's initialization of clus_prob[0], nearly verbatim.
  auto init = ctx.Execute(
      "CREATE TABLE clus_prob[0] (clus_id, prob) AS "
      "WITH diri_res AS Dirichlet "
      "    (SELECT clus_id, pi_prior FROM cluster) "
      "SELECT diri_res.out_id, diri_res.prob "
      "FROM diri_res");
  std::printf("clus_prob[0]: %s\n",
              init.ok() ? "ok" : init.status().ToString().c_str());

  // Section 5.2's recursive definition, iterated.
  ctx.RegisterVg("Dirichlet", &diri_rec);
  const std::string recursive =
      "CREATE TABLE clus_prob[i] (clus_id, prob) AS "
      "WITH diri_res AS Dirichlet "
      "  (SELECT cmem.clus_id, COUNT(*) + clus.pi_prior AS diri_para "
      "   FROM membership[i-1] cmem, cluster clus "
      "   WHERE cmem.clus_id = clus.clus_id "
      "   GROUP BY cmem.clus_id) "
      "SELECT diri_res.out_id, diri_res.prob "
      "FROM diri_res";
  for (int i = 1; i <= 3; ++i) {
    double before = sim.elapsed_seconds();
    auto r = ctx.Execute(SqlContext::BindIteration(recursive, i));
    if (!r.ok()) {
      std::printf("iteration %d failed: %s\n", i,
                  r.status().ToString().c_str());
      return 1;
    }
    // Memberships would be refreshed by the multinomial_membership VG in
    // the full simulation; here we reuse them to exercise the recursion.
    db.PutBatch(Database::Versioned("membership", i),
                db.GetColumnar(Database::Versioned("membership", i - 1)));
    std::printf("clus_prob[%d]: %zu rows, simulated %s\n", i,
                r->actual_rows(),
                FormatDuration(sim.elapsed_seconds() - before).c_str());
  }
  std::printf(
      "\nEach statement compiles to MapReduce jobs on the simulated fleet\n"
      "(SimSQL 0.1 semantics); clus_prob probabilities sum to 1 per copy.\n");
  return 0;
}
